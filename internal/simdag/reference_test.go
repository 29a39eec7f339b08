package simdag

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// TestExecuteMatchesReferenceEndToEnd replays the library's default
// time-cost schedules on both engines: Execute (the incremental flownet
// solver) must reproduce ExecuteReference's makespans and traffic
// accounting (rates are equal up to floating-point accumulation order).
func TestExecuteMatchesReferenceEndToEnd(t *testing.T) {
	graphs := []struct {
		name string
		g    func() *dag.Graph
	}{
		{"fft-k8", func() *dag.Graph { return gen.FFT(8, 3) }},
		{"strassen", func() *dag.Graph { return gen.Strassen(11) }},
		{"layered-n60", func() *dag.Graph {
			return gen.Random(gen.RandomParams{N: 60, Width: 0.6, Density: 0.5, Regularity: 0.8, Seed: 5, Layered: true})
		}},
	}
	opts := core.DefaultNaive(core.StrategyTimeCost)
	for _, cl := range []*platform.Cluster{platform.Grillon(), platform.Grelon()} {
		for _, gc := range graphs {
			g := gc.g()
			costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
			a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
			s := core.Map(g, costs, cl, a, opts)
			inc, err := Execute(g, costs, cl, s)
			if err != nil {
				t.Fatalf("%s %s: %v", cl.Name, gc.name, err)
			}
			ref, err := ExecuteReference(g, costs, cl, s)
			if err != nil {
				t.Fatalf("%s %s (reference): %v", cl.Name, gc.name, err)
			}
			if a, b := ref.Makespan, inc.Makespan; math.Abs(a-b) > 1e-9*math.Max(a, 1) {
				t.Errorf("%s %s: makespan %g (flownet) vs %g (maxmin)", cl.Name, gc.name, b, a)
			}
			if ref.FlowCount != inc.FlowCount || ref.RemoteBytes != inc.RemoteBytes {
				t.Errorf("%s %s: traffic accounting diverged between engines: %d flows / %g B (flownet) vs %d / %g (maxmin)",
					cl.Name, gc.name, inc.FlowCount, inc.RemoteBytes, ref.FlowCount, ref.RemoteBytes)
			}
		}
	}
}
