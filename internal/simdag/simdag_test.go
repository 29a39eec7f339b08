package simdag

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// manual builds a schedule by hand for a graph.
func manual(g *dag.Graph, procs [][]int) *core.Schedule {
	n := g.N()
	s := &core.Schedule{
		Alloc:     make([]int, n),
		Procs:     procs,
		Order:     make([]int, 0, n),
		EstStart:  make([]float64, n),
		EstFinish: make([]float64, n),
	}
	order, _ := g.TopoOrder()
	s.Order = order
	for t := 0; t < n; t++ {
		s.Alloc[t] = len(procs[t])
	}
	return s
}

func TestSingleTaskMakespan(t *testing.T) {
	cl := platform.Grillon()
	g := dag.NewGraph(1, 0)
	g.AddTask(dag.Task{Name: "solo", M: 10e6, A: 100, Alpha: 0.2})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := manual(g, [][]int{{0, 1}})
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	want := costs.Time(0, 2)
	if math.Abs(r.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %g, want %g", r.Makespan, want)
	}
	if r.RemoteBytes != 0 || r.FlowCount != 0 {
		t.Error("single task should not touch the network")
	}
}

func TestChainSameProcsNoTraffic(t *testing.T) {
	// Two tasks on the same processor set: no redistribution, makespan is
	// the sum of execution times.
	cl := platform.Grillon()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 10e6, A: 100, Alpha: 0.1})
	g.AddTask(dag.Task{Name: "b", M: 10e6, A: 100, Alpha: 0.1})
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := manual(g, [][]int{{0, 1, 2}, {0, 1, 2}})
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	want := costs.Time(0, 3) + costs.Time(1, 3)
	if math.Abs(r.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %g, want %g", r.Makespan, want)
	}
	if r.RemoteBytes != 0 {
		t.Errorf("RemoteBytes = %g, want 0 (same set, same ranks)", r.RemoteBytes)
	}
	if r.LocalBytes <= 0 {
		t.Error("expected local (free) redistribution bytes")
	}
}

func TestChainDisjointProcsPaysRedistribution(t *testing.T) {
	// 1 → 1 transfer between disjoint processors: the start of the second
	// task is delayed by exactly latency + bytes/β' (single flow, no
	// contention).
	cl := platform.Grillon()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 10e6, A: 100, Alpha: 0})
	g.AddTask(dag.Task{Name: "b", M: 10e6, A: 100, Alpha: 0})
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := manual(g, [][]int{{0}, {1}})
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	bytes := g.Tasks[0].Bytes()
	_, lat := cl.AppendRoute(nil, 0, 1)
	rate := math.Min(cl.LinkBandwidth, cl.EffectiveBandwidth(0, 1))
	wantGap := lat + bytes/rate
	gap := r.Start[1] - r.Finish[0]
	if math.Abs(gap-wantGap) > 1e-6 {
		t.Errorf("redistribution gap = %g, want %g", gap, wantGap)
	}
	if math.Abs(r.RemoteBytes-bytes) > 1e-6 {
		t.Errorf("RemoteBytes = %g, want %g", r.RemoteBytes, bytes)
	}
}

func TestContentionSlowsConcurrentRedistributions(t *testing.T) {
	// Fork: one producer on proc 0 sends to two consumers on procs 1 and
	// 2. Both flows leave through proc 0's private link and share its
	// bandwidth, so each takes about twice the solo time.
	cl := platform.Grillon()
	g := dag.NewGraph(3, 2)
	g.AddTask(dag.Task{Name: "src", M: 20e6, A: 100, Alpha: 0})
	g.AddTask(dag.Task{Name: "c1", M: 20e6, A: 100, Alpha: 0})
	g.AddTask(dag.Task{Name: "c2", M: 20e6, A: 100, Alpha: 0})
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	g.AddEdge(0, 2, g.Tasks[0].Bytes())
	g.Normalize()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	procs := make([][]int, g.N())
	procs[0], procs[1], procs[2] = []int{0}, []int{1}, []int{2}
	s := manual(g, procs)
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	bytes := g.Tasks[0].Bytes()
	_, lat := cl.AppendRoute(nil, 0, 1)
	solo := lat + bytes/cl.LinkBandwidth
	shared := lat + 2*bytes/cl.LinkBandwidth // both flows on src's uplink
	gap1 := r.Start[1] - r.Finish[0]
	if math.Abs(gap1-shared) > 1e-6 {
		t.Errorf("contended gap = %g, want %g (solo would be %g)", gap1, shared, solo)
	}
}

func TestVirtualEdgesAreFree(t *testing.T) {
	cl := platform.Chti()
	g := gen.Strassen(1)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	// Virtual entry finishes at t=0; all S tasks may start immediately.
	if r.Finish[g.Entry()] != 0 {
		t.Errorf("virtual entry finished at %g, want 0", r.Finish[g.Entry()])
	}
	if r.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
}

func TestInvalidScheduleRejected(t *testing.T) {
	cl := platform.Chti()
	g := dag.NewGraph(1, 0)
	g.AddTask(dag.Task{Name: "x", M: 5e6, A: 100, Alpha: 0})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := manual(g, [][]int{{0, 0}}) // duplicated processor
	if _, err := Execute(g, costs, cl, s); err == nil {
		t.Fatal("duplicate processor in mapping should be rejected")
	}
}

// checkReplayInvariants verifies the fundamental correctness properties of
// a replay: precedence+redistribution respected, no processor overlap,
// durations honoured.
func checkReplayInvariants(t *testing.T, g *dag.Graph, costs *moldable.Costs, s *core.Schedule, r *Result) {
	t.Helper()
	// Durations.
	for i := range g.Tasks {
		var want float64
		if !g.Tasks[i].Virtual {
			want = costs.Time(i, len(s.Procs[i]))
		}
		if math.Abs((r.Finish[i]-r.Start[i])-want) > 1e-6 {
			t.Fatalf("task %d duration %g, want %g", i, r.Finish[i]-r.Start[i], want)
		}
	}
	// Precedence: a task starts no earlier than every predecessor's finish
	// (redistribution only adds on top).
	for _, e := range g.Edges {
		if r.Start[e.To] < r.Finish[e.From]-1e-9 {
			t.Fatalf("edge %d→%d: start %g before producer finish %g",
				e.From, e.To, r.Start[e.To], r.Finish[e.From])
		}
		if r.EdgeFinish[e.ID] > r.Start[e.To]+1e-9 {
			t.Fatalf("edge %d→%d: consumer started before redistribution completed", e.From, e.To)
		}
	}
	// Exclusive processors: intervals on one processor must not overlap.
	type iv struct{ s, f float64 }
	perProc := map[int][]iv{}
	for i := range g.Tasks {
		if g.Tasks[i].Virtual {
			continue
		}
		for _, p := range s.Procs[i] {
			perProc[p] = append(perProc[p], iv{r.Start[i], r.Finish[i]})
		}
	}
	for p, ivs := range perProc {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].s < ivs[i-1].f-1e-9 {
				t.Fatalf("processor %d double-booked: [%g,%g] overlaps [%g,%g]",
					p, ivs[i-1].s, ivs[i-1].f, ivs[i].s, ivs[i].f)
			}
		}
	}
}

func TestFullPipelineInvariantsAllStrategies(t *testing.T) {
	for _, cl := range platform.PaperClusters() {
		for _, st := range []core.Strategy{core.StrategyNone, core.StrategyDelta, core.StrategyTimeCost} {
			g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: false, Jump: 2, Seed: 13})
			costs := moldable.NewCosts(g, cl.SpeedGFlops)
			a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
			s := core.Map(g, costs, cl, a, core.DefaultNaive(st))
			r, err := Execute(g, costs, cl, s)
			if err != nil {
				t.Fatalf("%s/%v: %v", cl.Name, st, err)
			}
			checkReplayInvariants(t, g, costs, s, r)
		}
	}
}

// Property: replays of random workloads complete and respect all
// invariants across graph families and strategies.
func TestPropertyReplayInvariants(t *testing.T) {
	cl := platform.Grillon()
	f := func(seed int64, stIdx, kindIdx uint8) bool {
		var g *dag.Graph
		switch int(kindIdx) % 3 {
		case 0:
			g = gen.Random(gen.RandomParams{N: 25, Width: 0.8, Regularity: 0.2, Density: 0.2, Layered: true, Seed: seed})
		case 1:
			g = gen.FFT(4, seed)
		default:
			g = gen.Strassen(seed)
		}
		st := []core.Strategy{core.StrategyNone, core.StrategyDelta, core.StrategyTimeCost}[int(stIdx)%3]
		costs := moldable.NewCosts(g, cl.SpeedGFlops)
		a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
		s := core.Map(g, costs, cl, a, core.DefaultNaive(st))
		r, err := Execute(g, costs, cl, s)
		if err != nil {
			return false
		}
		for _, e := range g.Edges {
			if r.Start[e.To] < r.Finish[e.From]-1e-9 {
				return false
			}
		}
		return r.Makespan > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGanttRendering(t *testing.T) {
	cl := platform.Chti()
	g := gen.FFT(4, 2)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyDelta))
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(g, s, r, 60)
	if len(out) == 0 || out[0] != 'p' {
		t.Errorf("unexpected Gantt output: %q", out[:min(40, len(out))])
	}
}

func BenchmarkReplay50TaskIrregular(b *testing.B) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: false, Jump: 2, Seed: 3})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(g, costs, cl, s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplayAllocsBelowPerFlowCost guards the batched flow launch: when
// every wire flow was launched through its own captured closure, a
// replay's allocs/op was bounded below by its FlowCount — measured 2447
// allocs for the 1102-flow scenario here. With one typed event per flow
// batch, the same replay measures ~1201: the remainder is first-use
// buffer growth (solver entities, event heap, flow arena) that a fresh
// Execute cannot avoid, comfortably under the per-flow floor.
func TestReplayAllocsBelowPerFlowCost(t *testing.T) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: false, Jump: 2, Seed: 3})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	s := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
	r, err := Execute(g, costs, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowCount < 1000 {
		t.Fatalf("scenario too small to discriminate: %d flows", r.FlowCount)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Execute(g, costs, cl, s); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 1.5 * float64(r.FlowCount); allocs >= limit {
		t.Errorf("replay allocates %.0f times for %d flows (limit %.0f): per-flow setup cost is back",
			allocs, r.FlowCount, limit)
	}
}
