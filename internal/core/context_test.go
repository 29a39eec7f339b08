package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/platform"
)

// randomGraph draws one of the workload classes the service will see:
// layered and irregular random DAGs of varying size plus the two HPC
// kernels.
func randomGraph(rng *rand.Rand) *dag.Graph {
	switch rng.Intn(4) {
	case 0:
		return gen.Random(gen.RandomParams{
			N: 20 + rng.Intn(60), Width: 0.3 + 0.6*rng.Float64(),
			Regularity: rng.Float64(), Density: 0.2 + 0.6*rng.Float64(),
			Layered: true, Seed: rng.Int63()})
	case 1:
		return gen.Random(gen.RandomParams{
			N: 20 + rng.Intn(60), Width: 0.3 + 0.6*rng.Float64(),
			Regularity: rng.Float64(), Density: 0.2 + 0.6*rng.Float64(),
			Jump: 1 + rng.Intn(3), Seed: rng.Int63()})
	case 2:
		return gen.FFT(4<<rng.Intn(3), rng.Int63())
	default:
		return gen.Strassen(rng.Int63())
	}
}

// TestMapContextReuseDigestIdentical is the pooled-context equivalence
// test: a randomized sequence of mixed (cluster, options, DAG) requests
// scheduled through one reused MapContext per cluster must produce
// byte-identical schedules to fresh per-request construction — the digest
// covers every observable field of the schedule, floats rendered exactly.
// After the random stream, degenerate graphs (a lone task, a two-task
// chain, a three-way fork) run on every pooled context under each
// strategy, where a task has fewer candidates than the context has seen.
func TestMapContextReuseDigestIdentical(t *testing.T) {
	clusters := []*platform.Cluster{platform.Chti(), platform.Grelon(), platform.Big512(), platform.Big512Het()}
	pooled := make([]*MapContext, len(clusters))
	for i, cl := range clusters {
		pooled[i] = NewMapContext(cl)
	}
	rng := rand.New(rand.NewSource(20260807))
	strategies := []Strategy{StrategyNone, StrategyDelta, StrategyTimeCost}

	check := func(i, ci int, g *dag.Graph, opts Options) {
		t.Helper()
		cl := clusters[ci]
		costs, alloc := setup(g, cl)
		fresh := Map(g, costs, cl, alloc, opts)
		reused := pooled[ci].Map(g, costs, alloc, opts)
		want, got := scheduleDigest(fresh), scheduleDigest(reused)
		if got != want {
			t.Fatalf("request %d (%s, %v): reused-context digest %s != fresh digest %s",
				i, cl.Name, opts.Strategy, got, want)
		}
		if err := reused.Validate(g, cl); err != nil {
			t.Fatalf("request %d: reused-context schedule invalid: %v", i, err)
		}
	}

	const requests = 60
	for i := 0; i < requests; i++ {
		ci := rng.Intn(len(clusters))
		g := randomGraph(rng)
		opts := DefaultNaive(strategies[rng.Intn(len(strategies))])
		if rng.Intn(4) == 0 {
			opts.exactAlign = true // the MapReference oracle
		}
		if rng.Intn(4) == 0 {
			opts.Packing = false
			opts.MinRho = 0.9
		}
		check(i, ci, g, opts)
	}

	solo := dag.NewGraph(1, 0)
	solo.AddTask(dag.Task{Name: "solo", M: 20e6, A: 100, Alpha: 0.2})
	fork := dag.NewGraph(4, 3)
	fork.AddTask(dag.Task{Name: "src", M: 20e6, A: 100, Alpha: 0.1})
	for i := 0; i < 3; i++ {
		fork.AddTask(dag.Task{Name: fmt.Sprintf("c%d", i), M: 10e6, A: 100, Alpha: 0.1})
		fork.AddEdge(0, i+1, fork.Tasks[0].Bytes())
	}
	fork.Normalize()
	i := requests
	for _, g := range []*dag.Graph{solo, chain(2, 15e6), fork} {
		for ci := range clusters {
			for _, st := range strategies {
				check(i, ci, g, DefaultNaive(st))
				i++
			}
		}
	}
}

// TestMapContextOwnershipHandoff pins the schedule-ownership handoff: a
// schedule produced by a pooled context must stay intact when the context
// is reused for a different DAG — nothing the context retains may alias
// the schedule's arrays.
func TestMapContextOwnershipHandoff(t *testing.T) {
	cl := platform.Grelon()
	c := NewMapContext(cl)
	g1 := gen.FFT(8, 5)
	costs1, a1 := setup(g1, cl)
	opts := DefaultNaive(StrategyTimeCost)
	s1 := c.Map(g1, costs1, a1, opts)
	d1 := scheduleDigest(s1)

	// Hammer the context with different workloads, then re-digest s1.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g := randomGraph(rng)
		costs, a := setup(g, cl)
		c.Map(g, costs, a, DefaultNaive(StrategyDelta))
	}
	if d := scheduleDigest(s1); d != d1 {
		t.Fatalf("schedule mutated by later context runs: digest %s -> %s", d1, d)
	}
}

// TestMapContextReuseAllocs verifies the point of pooling: steady-state
// runs on a reused context allocate well below a fresh mapper's setup
// cost. The bound is deliberately loose (escaping schedule arrays remain),
// it guards the amortization from silently regressing.
func TestMapContextReuseAllocs(t *testing.T) {
	cl := platform.Big512()
	g := gen.Random(gen.RandomParams{
		N: 60, Width: 0.5, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 11})
	costs, alloc := setup(g, cl)
	opts := DefaultNaive(StrategyTimeCost)

	c := NewMapContext(cl)
	c.Map(g, costs, alloc, opts) // warm the scratch
	reused := testing.AllocsPerRun(10, func() {
		c.Map(g, costs, alloc, opts)
	})
	fresh := testing.AllocsPerRun(10, func() {
		Map(g, costs, cl, alloc, opts)
	})
	if reused >= fresh {
		t.Fatalf("reused context allocates %.0f/run, fresh %.0f/run — pooling buys nothing", reused, fresh)
	}
	t.Logf("allocs/run: fresh %.0f, reused %.0f (%.1fx fewer)", fresh, reused, fresh/reused)
}
