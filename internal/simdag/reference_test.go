package simdag

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/sim"
)

// executeReference replays s on the reference max-min network
// (oracle.MaxMinNet), which re-solves rates from scratch on every
// population change.
func executeReference(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	return ExecuteOn(sim.NewOn(oracle.NewMaxMinNet(cl.LinkCapacities())), g, costs, cl, s)
}

// TestExecuteMatchesReferenceEndToEnd replays the library's default
// time-cost schedules on both engines: Execute (the incremental flownet
// solver) must reproduce executeReference's makespans and traffic
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
			ref, err := executeReference(g, costs, cl, s)
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

// TestExecuteMatchesReferenceBindingWMax replays on a custom grelon whose
// TCP window makes β' = WMax/RTT bind on cross-cabinet routes (and not
// inside a cabinet), so the flow solver's rate-cap events fire: Execute
// must still reproduce the reference. The same schedule replayed with
// the preset's non-binding window must take a different time, or the
// caps never mattered.
func TestExecuteMatchesReferenceBindingWMax(t *testing.T) {
	cl := platform.Grelon()
	cl.Name = "grelon-wmax64k"
	cl.WMax = 64 << 10
	intra, cross := cl.EffectiveBandwidth(0, 1), cl.EffectiveBandwidth(0, cl.CabinetSize)
	if intra != cl.LinkBandwidth || !(cross < cl.LinkBandwidth) {
		t.Fatalf("β' = %g inside a cabinet and %g across, want %g and less", intra, cross, cl.LinkBandwidth)
	}
	g := gen.Random(gen.RandomParams{N: 60, Width: 0.6, Density: 0.5, Regularity: 0.8, Seed: 5, Layered: true})
	costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
	inc, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := executeReference(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ref.Makespan, inc.Makespan; math.Abs(a-b) > 1e-9*math.Max(a, 1) {
		t.Errorf("makespan %g (flownet) vs %g (maxmin)", b, a)
	}
	if ref.FlowCount != inc.FlowCount || ref.RemoteBytes != inc.RemoteBytes {
		t.Errorf("traffic accounting diverged: %d flows / %g B (flownet) vs %d / %g (maxmin)",
			inc.FlowCount, inc.RemoteBytes, ref.FlowCount, ref.RemoteBytes)
	}
	wide, err := Execute(g, costs, platform.Grelon(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !(wide.Makespan < inc.Makespan) {
		t.Errorf("makespan %g with the binding window, %g without: the caps never bound", inc.Makespan, wide.Makespan)
	}
}
