package rats

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/simdag"
)

// referenceSchedule runs s's pipeline with the exact-alignment oracle
// (core.MapReference) in place of the production mapper.
func referenceSchedule(t *testing.T, s *Scheduler, d *DAG) *Result {
	t.Helper()
	if err := d.Build(); err != nil {
		t.Fatal(err)
	}
	g, cl := d.g, s.cluster.pc
	costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
	sched := core.MapReference(g, costs, cl, alloc.Compute(g, costs, cl, s.allocOpts), s.mapOpts)
	sim, err := simdag.Execute(g, costs, cl, sched)
	if err != nil {
		t.Fatal(err)
	}
	return newResult(d, s, sched, sim)
}

// TestAlignmentModesSchedule runs the same DAG through the library and the
// exact-alignment oracle: on a paper-scale cluster every redistribution
// sits under the exact cap, so the two coincide.
func TestAlignmentModesSchedule(t *testing.T) {
	d := Random(RandomSpec{N: 40, Width: 0.6, Density: 0.5, Regularity: 0.8, Layered: true, Seed: 5})
	s := New(WithStrategy(TimeCost))
	a, err := s.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	h := referenceSchedule(t, s, d)
	if h.Makespan != a.Makespan || h.LocalBytes != a.LocalBytes {
		t.Errorf("library and exact oracle diverged below the exact cap: makespan %g vs %g, local %g vs %g",
			a.Makespan, h.Makespan, a.LocalBytes, h.LocalBytes)
	}
	if a.Counters.AlignExact == 0 || a.Counters.AlignGreedy != 0 {
		t.Errorf("align exact/greedy = %d/%d, want exact solves only", a.Counters.AlignExact, a.Counters.AlignGreedy)
	}
}

// TestProfileDefaults pins the library's alignment policy: FFT(32) on
// grelon makes a few redistributions wider than the 32-receiver cap, which
// the default scheduler solves greedily and the exact oracle does not.
func TestProfileDefaults(t *testing.T) {
	s := New(WithCluster(Grelon()), WithStrategy(TimeCost))
	d := FFT(32, 3)
	res, err := s.Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.AlignGreedy == 0 {
		t.Errorf("default scheduler made no greedy alignment solves (exact %d)", res.Counters.AlignExact)
	}
	if ref := referenceSchedule(t, s, d); ref.Counters.AlignGreedy != 0 {
		t.Errorf("exact oracle made %d greedy alignment solves", ref.Counters.AlignGreedy)
	}
}

// TestProfileFastMakespanBound is the randomized contract test: across
// random and FFT workloads on flat, hierarchical and heterogeneous
// clusters, the library's simulated makespan stays within 0.5% of the
// exact-alignment oracle's. This bound is what licenses the size-selected
// alignment.
func TestProfileFastMakespanBound(t *testing.T) {
	clusters := []*Cluster{Grillon(), Grelon(), GrelonHet()}
	var dags []*DAG
	for seed := int64(1); seed <= 4; seed++ {
		dags = append(dags,
			Random(RandomSpec{N: 60, Width: 0.8, Density: 0.5, Regularity: 0.8, Seed: seed, Layered: true}),
			Random(RandomSpec{N: 40, Width: 0.5, Density: 0.3, Regularity: 0.6, Seed: seed}),
		)
	}
	dags = append(dags, FFT(16, 9), Strassen(3))

	for _, cl := range clusters {
		for _, st := range []Strategy{Baseline, Delta, TimeCost} {
			s := New(WithCluster(cl), WithStrategy(st))
			for i, d := range dags {
				fr, err := s.Schedule(d)
				if err != nil {
					t.Fatalf("%s/%v dag %d: %v", cl.Name(), st, i, err)
				}
				rr := referenceSchedule(t, s, d)
				delta := 100 * math.Abs(fr.Makespan-rr.Makespan) / rr.Makespan
				if delta > 0.5 {
					t.Errorf("%s/%v dag %d: makespan %g vs exact oracle %g (Δ %.3f%%, bound 0.5%%)",
						cl.Name(), st, i, fr.Makespan, rr.Makespan, delta)
				}
			}
		}
	}
}
