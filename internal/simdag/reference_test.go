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
)

// executeReference replays s on the reference max-min network
// (oracle.MaxMinNet), which re-solves rates from scratch on every
// population change.
func executeReference(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	return ExecuteOn(oracle.NewMaxMinNet(cl.LinkCapacities()), g, costs, cl, s)
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

// timeClose allows the ulp-level divergence of the two networks'
// arithmetic.
func timeClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// TestExecuteMatchesReferenceRandom replays randomized schedules (random
// layered and irregular DAGs under every strategy, on paper-scale and big
// clusters) on both networks. Every redistribution is started by a task
// finish that a flow completion enabled, with staggered latencies and
// rate caps, so the event loop interleaves batch starts, task finishes and
// completions in every order. Every start, finish and edge finish must
// agree with the reference within 1e-9.
func TestExecuteMatchesReferenceRandom(t *testing.T) {
	strategies := []core.Strategy{core.StrategyNone, core.StrategyDelta, core.StrategyTimeCost}
	for _, cl := range []*platform.Cluster{platform.Grillon(), platform.Grelon(), platform.Big512()} {
		for seed := int64(0); seed < 12; seed++ {
			g := gen.Random(gen.RandomParams{
				N: 20 + 10*int(seed%3), Width: 0.5, Density: 0.5, Regularity: 0.5,
				Layered: seed%2 == 0, Jump: 2, Seed: 100*seed + 17,
			})
			costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
			a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
			s := core.Map(g, costs, cl, a, core.DefaultNaive(strategies[seed%3]))
			got, err := Execute(g, costs, cl, s)
			if err != nil {
				t.Fatalf("%s seed %d: %v", cl.Name, seed, err)
			}
			ref, err := executeReference(g, costs, cl, s)
			if err != nil {
				t.Fatalf("%s seed %d (reference): %v", cl.Name, seed, err)
			}
			for i := range ref.Finish {
				if !timeClose(got.Start[i], ref.Start[i]) || !timeClose(got.Finish[i], ref.Finish[i]) {
					t.Fatalf("%s seed %d task %d: [%g, %g] (flownet) vs [%g, %g] (maxmin)", cl.Name, seed, i,
						got.Start[i], got.Finish[i], ref.Start[i], ref.Finish[i])
				}
			}
			for i := range ref.EdgeFinish {
				if !timeClose(got.EdgeFinish[i], ref.EdgeFinish[i]) {
					t.Fatalf("%s seed %d edge %d: done at %g (flownet) vs %g (maxmin)", cl.Name, seed, i,
						got.EdgeFinish[i], ref.EdgeFinish[i])
				}
			}
			if got.FlowCount != ref.FlowCount || got.Counters.FlowBatches != ref.Counters.FlowBatches {
				t.Fatalf("%s seed %d: %d flows in %d batches (flownet) vs %d in %d (maxmin)", cl.Name, seed,
					got.FlowCount, got.Counters.FlowBatches, ref.FlowCount, ref.Counters.FlowBatches)
			}
		}
	}
}

// TestReplayDeterminism pins replay determinism: the same schedule
// replayed twice on the same kind of network reproduces every time bit for
// bit.
func TestReplayDeterminism(t *testing.T) {
	cl := platform.Grelon()
	g := gen.Random(gen.RandomParams{N: 60, Width: 0.6, Density: 0.5, Regularity: 0.8, Seed: 321, Layered: true})
	costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
	for _, engine := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"flownet", func() (*Result, error) { return Execute(g, costs, cl, s) }},
		{"maxmin", func() (*Result, error) { return executeReference(g, costs, cl, s) }},
	} {
		first, err := engine.run()
		if err != nil {
			t.Fatal(err)
		}
		second, err := engine.run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := replayDigest(first), replayDigest(second); a != b {
			t.Fatalf("%s: nondeterministic replay: digest %s then %s", engine.name, a, b)
		}
	}
}
