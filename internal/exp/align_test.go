package exp

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/simdag"
)

// TestAlignmentWithinBoundOfExactOracle is the contract that licenses the
// mapper's size-selected alignment (exact up to redist.AlignExactCap
// receivers, greedy above): on the paper-scale classes of the alignment
// ablation, every algorithm's replayed makespan under core.Map stays
// within 0.5% of the one under the exact core.MapReference oracle. Each
// class must also make greedy solves, so the bound is never checked
// vacuously on schedules the cap did not touch.
func TestAlignmentWithinBoundOfExactOracle(t *testing.T) {
	het := ScenariosAt(ScaleGrelonHet)
	classes := []struct {
		name  string
		cl    *platform.Cluster
		scens []Scenario
	}{
		{"grelon", platform.Grelon(), Subsample(Scenarios(), 79)},
		{"grelon-het", platform.GrelonHet(), append([]Scenario{het[32]}, Subsample(het, 6)...)},
	}
	shared := alloc.DefaultOptions()
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var worst float64
			var greedy uint64
			for _, sc := range c.scens {
				g := sc.Graph()
				costs := moldable.NewCosts(g, c.cl.PlanSpeedGFlops())
				for _, spec := range ExtendedAlgos() {
					ao := shared
					if spec.Alloc != nil {
						ao = *spec.Alloc
					}
					a := alloc.Compute(g, costs, c.cl, ao)
					fast := core.Map(g, costs, c.cl, a, spec.Map)
					exact := core.MapReference(g, costs, c.cl, a, spec.Map)
					greedy += fast.Counters.AlignGreedy
					if exact.Counters.AlignGreedy != 0 {
						t.Fatalf("%s / %s: the exact oracle made %d greedy solves",
							sc.Name(), spec.Name, exact.Counters.AlignGreedy)
					}
					if scheduleSignature(fast) == scheduleSignature(exact) {
						continue // identical schedules replay identically
					}
					fr, err := simdag.Execute(g, costs, c.cl, fast)
					if err != nil {
						t.Fatal(err)
					}
					er, err := simdag.Execute(g, costs, c.cl, exact)
					if err != nil {
						t.Fatal(err)
					}
					delta := 100 * math.Abs(fr.Makespan-er.Makespan) / er.Makespan
					if delta > 0.5 {
						t.Errorf("%s / %s: makespan %g vs exact %g (Δ %.4f%%, bound 0.5%%)",
							sc.Name(), spec.Name, fr.Makespan, er.Makespan, delta)
					}
					worst = math.Max(worst, delta)
				}
			}
			if greedy == 0 {
				t.Fatalf("%d scenarios made no greedy alignment solve: the bound was not exercised", len(c.scens))
			}
			t.Logf("%d scenarios × %d algorithms: %d greedy solves, worst |Δmakespan| %.4f%%",
				len(c.scens), len(ExtendedAlgos()), greedy, worst)
		})
	}
}
