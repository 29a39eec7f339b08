package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/redist"
)

// chain builds an n-task chain with uniform costs.
func chain(n int, m float64) *dag.Graph {
	g := dag.NewGraph(n, n-1)
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Name: "c", M: m, A: 128, Alpha: 0.1})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, g.Tasks[i-1].Bytes())
	}
	return g
}

func setup(g *dag.Graph, cl *platform.Cluster) (*moldable.Costs, []int) {
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	return costs, a
}

func TestBaselineScheduleValidates(t *testing.T) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.8, Density: 0.2, Layered: true, Seed: 4})
	costs, a := setup(g, cl)
	s := Map(g, costs, cl, a, DefaultNaive(StrategyNone))
	if err := s.Validate(g, cl); err != nil {
		t.Fatal(err)
	}
	if s.EstMakespan() <= 0 {
		t.Error("estimated makespan should be positive")
	}
	// Baseline never modifies the allocation.
	for i := range a {
		if s.Alloc[i] != a[i] {
			t.Errorf("baseline changed allocation of task %d: %d -> %d", i, a[i], s.Alloc[i])
		}
	}
}

func TestChainOnSameProcsHasNoRedistribution(t *testing.T) {
	// Equal allocations down a chain: the delta strategy (δ+=0) must snap
	// each task to its predecessor's exact processor set, making every
	// estimated start equal to the predecessor's finish (no redistribution
	// delay in the estimates).
	cl := platform.Grillon()
	g := chain(5, 40e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := make([]int, g.N())
	for i := range a {
		a[i] = 8
	}
	s := Map(g, costs, cl, a, DefaultNaive(StrategyDelta))
	for i := 1; i < g.N(); i++ {
		if !redist.SameSet(s.Procs[i], s.Procs[i-1]) {
			t.Fatalf("task %d not snapped to predecessor's processors", i)
		}
		if math.Abs(s.EstStart[i]-s.EstFinish[i-1]) > 1e-9 {
			t.Errorf("task %d starts %g after predecessor finish (want 0)",
				i, s.EstStart[i]-s.EstFinish[i-1])
		}
	}
	// Baseline, by contrast, pays redistribution estimates? Not on a chain:
	// earliest-available procs are the predecessor's (they free first), so
	// the sets coincide. This is why RATS gains appear on less trivial
	// graphs; here we only check the baseline is not *worse*.
	sb := Map(g, costs, cl, a, DefaultNaive(StrategyNone))
	if sb.EstMakespan() < s.EstMakespan()-1e-9 {
		t.Errorf("delta (%g) worse than baseline (%g) on a chain", s.EstMakespan(), sb.EstMakespan())
	}
}

func TestDeltaStretchesWithinBound(t *testing.T) {
	// Chain: pred alloc 10, task alloc 8, maxdelta 0.25 ⇒ δmax = 2 ⇒ the
	// stretch to 10 procs is allowed (δ+ = 2).
	cl := platform.Grillon()
	g := chain(2, 40e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	opts := DefaultNaive(StrategyDelta)
	opts.MaxDelta = 0.25
	s := Map(g, costs, cl, []int{10, 8}, opts)
	if s.Alloc[1] != 10 || !redist.SameSet(s.Procs[1], s.Procs[0]) {
		t.Errorf("expected stretch 8→10; got alloc %d", s.Alloc[1])
	}
	// maxdelta 0.1 ⇒ δmax = 0 ⇒ no stretch allowed; keep original 8.
	opts.MaxDelta = 0.1
	opts.MinDelta = 0
	s = Map(g, costs, cl, []int{10, 8}, opts)
	if s.Alloc[1] != 8 {
		t.Errorf("stretch should be rejected; alloc = %d", s.Alloc[1])
	}
}

func TestDeltaPacksWithinBound(t *testing.T) {
	// Pred alloc 7, task alloc 8, mindelta −0.25 ⇒ δmin = −2 ⇒ pack to 7
	// (the saved redistribution outweighs the slightly longer execution,
	// so the finish-time guard accepts it).
	cl := platform.Grillon()
	g := chain(2, 40e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	opts := DefaultNaive(StrategyDelta)
	opts.MinDelta = -0.25
	opts.MaxDelta = 0 // forbid stretching
	s := Map(g, costs, cl, []int{7, 8}, opts)
	if s.Alloc[1] != 7 || !redist.SameSet(s.Procs[1], s.Procs[0]) {
		t.Errorf("expected pack 8→7; got alloc %d", s.Alloc[1])
	}
	// mindelta −0.1 ⇒ δmin = 0 ⇒ packing by 1 rejected.
	opts.MinDelta = -0.1
	s = Map(g, costs, cl, []int{7, 8}, opts)
	if s.Alloc[1] != 8 {
		t.Errorf("pack should be rejected; alloc = %d", s.Alloc[1])
	}
}

func TestDeltaEFTGuardRejectsDelayingSnap(t *testing.T) {
	// Pack 8→4 doubles the parallel part of the execution time; the saved
	// redistribution is far smaller, so the guard must keep the original
	// allocation although the δ bounds admit the snap.
	cl := platform.Grillon()
	g := chain(2, 40e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	opts := DefaultNaive(StrategyDelta)
	opts.MinDelta, opts.MaxDelta = -0.5, 0
	s := Map(g, costs, cl, []int{4, 8}, opts)
	if s.Alloc[1] != 8 {
		t.Errorf("guarded delta should keep alloc 8, got %d", s.Alloc[1])
	}
}

func TestDeltaPrefersSmallestModification(t *testing.T) {
	// Join: {t0, t1} → t2, with a virtual entry added by Normalize so the
	// two parents keep their first-step allocations (no real predecessors
	// to snap to). t0 gets 10 procs, t1 gets 5, t2 has 6:
	// δ+ = 4 (t0), δ− = −1 (t1) ⇒ packing onto t1 wins (|−1| < 4).
	cl := platform.Grillon()
	g := dag.NewGraph(3, 2)
	for i := 0; i < 3; i++ {
		g.AddTask(dag.Task{Name: "d", M: 40e6, A: 128, Alpha: 0.1})
	}
	g.AddEdge(0, 2, g.Tasks[0].Bytes())
	g.AddEdge(1, 2, g.Tasks[1].Bytes())
	g.Normalize()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	opts := DefaultNaive(StrategyDelta)
	opts.MinDelta, opts.MaxDelta = -1, 1
	s := Map(g, costs, cl, []int{10, 5, 6, 0}, opts)
	if s.Alloc[0] != 10 || s.Alloc[1] != 5 {
		t.Fatalf("parents should keep their allocations, got %d/%d", s.Alloc[0], s.Alloc[1])
	}
	if s.Alloc[2] != 5 || !redist.SameSet(s.Procs[2], s.Procs[1]) {
		t.Errorf("t2 should pack onto t1's 5 procs; got %d procs %v", s.Alloc[2], s.Procs[2])
	}
}

func TestTimeCostStretchRespectsRho(t *testing.T) {
	// α = 0.25: stretching 1 → 16 costs a lot of work.
	// ρ(16) = W(1)/W(16) = T/( 16·T·(0.25+0.75/16) ) = 1/(16·0.296875) = 0.2105.
	cl := platform.Grillon()
	g := chain(2, 40e6)
	g.Tasks[1].Alpha = 0.25
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	opts := DefaultNaive(StrategyTimeCost)
	opts.Packing = false
	opts.MinRho = 0.5 // stricter than 0.2105 ⇒ refuse
	s := Map(g, costs, cl, []int{16, 1}, opts)
	if s.Alloc[1] != 1 {
		t.Errorf("stretch should be refused at minrho=0.5; alloc = %d", s.Alloc[1])
	}
	opts.MinRho = 0.2 // looser ⇒ accept
	s = Map(g, costs, cl, []int{16, 1}, opts)
	if s.Alloc[1] != 16 || !redist.SameSet(s.Procs[1], s.Procs[0]) {
		t.Errorf("stretch should be accepted at minrho=0.2; alloc = %d", s.Alloc[1])
	}
}

func TestTimeCostPackingNeverDegradesEstimatedFinish(t *testing.T) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.8, Regularity: 0.2, Density: 0.2, Layered: false, Jump: 2, Seed: 8})
	costs, a := setup(g, cl)
	optsNoPack := DefaultNaive(StrategyTimeCost)
	optsNoPack.Packing = false
	optsPack := DefaultNaive(StrategyTimeCost)

	sp := Map(g, costs, cl, a, optsPack)
	if err := sp.Validate(g, cl); err != nil {
		t.Fatal(err)
	}
	snp := Map(g, costs, cl, a, optsNoPack)
	if err := snp.Validate(g, cl); err != nil {
		t.Fatal(err)
	}
	// Packing decisions are local (finish-time non-degrading), so the
	// schedule-wide estimate should rarely degrade; allow a small slack
	// for interaction effects but catch gross regressions.
	if sp.EstMakespan() > snp.EstMakespan()*1.25 {
		t.Errorf("packing degraded estimate %g -> %g", snp.EstMakespan(), sp.EstMakespan())
	}
}

func TestVirtualTasksHoldNoProcessors(t *testing.T) {
	cl := platform.Chti()
	g := gen.Strassen(3) // virtual entry and exit
	costs, a := setup(g, cl)
	for _, st := range []Strategy{StrategyNone, StrategyDelta, StrategyTimeCost} {
		s := Map(g, costs, cl, a, DefaultNaive(st))
		if err := s.Validate(g, cl); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		entry, exit := g.Entry(), g.Exit()
		if len(s.Procs[entry]) != 0 || len(s.Procs[exit]) != 0 {
			t.Errorf("%v: virtual tasks were mapped", st)
		}
	}
}

func TestSecondarySortDelta(t *testing.T) {
	// Two ready tasks engineered to share the exact same bottom level
	// (α = 0 and A chosen so T(t1, 4) = T(t2, 7)); t2 needs the smaller δ
	// (δ+ = 1 vs 4) and must be mapped first despite its larger task ID.
	cl := platform.Grillon()
	g := dag.NewGraph(4, 4)
	g.AddTask(dag.Task{Name: "s0", M: 40e6, A: 128, Alpha: 0})
	g.AddTask(dag.Task{Name: "s1", M: 40e6, A: 128, Alpha: 0}) // T(·,4) = 32·m/s
	g.AddTask(dag.Task{Name: "s2", M: 40e6, A: 224, Alpha: 0}) // T(·,7) = 32·m/s
	g.AddTask(dag.Task{Name: "s3", M: 40e6, A: 128, Alpha: 0})
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	g.AddEdge(0, 2, g.Tasks[0].Bytes())
	g.AddEdge(1, 3, g.Tasks[1].Bytes())
	g.AddEdge(2, 3, g.Tasks[2].Bytes())
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	// t0 has 8 procs; δ(t1) = 8−4 = 4, δ(t2) = 8−7 = 1.
	opts := DefaultNaive(StrategyDelta)
	opts.MaxDelta, opts.MinDelta = 1, -1
	s := Map(g, costs, cl, []int{8, 4, 7, 4}, opts)
	pos := map[int]int{}
	for i, tk := range s.Order {
		pos[tk] = i
	}
	if pos[2] > pos[1] {
		t.Errorf("secondary δ sort violated: order %v", s.Order)
	}
}

func TestSecondarySortTimeCost(t *testing.T) {
	// Equal bottom levels (α = 0, T(t1, 8) = T(t2, 4) by construction);
	// gain(t1) = 0 (predecessor allocation equals its own) while
	// gain(t2) = T(t2,4) − T(t2,8) > 0, so t2 must be mapped first.
	cl := platform.Grillon()
	g := dag.NewGraph(4, 4)
	g.AddTask(dag.Task{Name: "s0", M: 40e6, A: 128, Alpha: 0})
	g.AddTask(dag.Task{Name: "s1", M: 40e6, A: 256, Alpha: 0}) // T(·,8) = 32·m/s
	g.AddTask(dag.Task{Name: "s2", M: 40e6, A: 128, Alpha: 0}) // T(·,4) = 32·m/s
	g.AddTask(dag.Task{Name: "s3", M: 40e6, A: 128, Alpha: 0})
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	g.AddEdge(0, 2, g.Tasks[0].Bytes())
	g.AddEdge(1, 3, g.Tasks[1].Bytes())
	g.AddEdge(2, 3, g.Tasks[2].Bytes())
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := Map(g, costs, cl, []int{8, 8, 4, 4}, DefaultNaive(StrategyTimeCost))
	pos := map[int]int{}
	for i, tk := range s.Order {
		pos[tk] = i
	}
	if pos[2] > pos[1] {
		t.Errorf("secondary gain sort violated: order %v", s.Order)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyNone.String() != "hcpa" || StrategyDelta.String() != "delta" ||
		StrategyTimeCost.String() != "time-cost" || Strategy(9).String() != "Strategy(9)" {
		t.Error("Strategy.String mismatch")
	}
}

// Property: all strategies produce valid schedules on random workloads,
// and RATS allocations never leave [1, P].
func TestPropertySchedulesValid(t *testing.T) {
	clusters := platform.PaperClusters()
	f := func(seed int64, stIdx, cIdx uint8) bool {
		cl := clusters[int(cIdx)%3]
		st := []Strategy{StrategyNone, StrategyDelta, StrategyTimeCost}[int(stIdx)%3]
		g := gen.Random(gen.RandomParams{N: 25, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: false, Jump: 2, Seed: seed})
		costs, a := setup(g, cl)
		s := Map(g, costs, cl, a, DefaultNaive(st))
		return s.Validate(g, cl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalAvailabilityOrder verifies the invariant behind the
// incrementally-maintained processor ordering: after every commit of a
// mapping run, byAvail must equal the full (availability, ID) sort that
// procsByAvailability used to recompute per candidate evaluation.
func TestIncrementalAvailabilityOrder(t *testing.T) {
	for _, cl := range []*platform.Cluster{platform.Chti(), platform.Grelon()} {
		for _, st := range []Strategy{StrategyNone, StrategyDelta, StrategyTimeCost} {
			g := gen.Random(gen.RandomParams{
				N: 40, Width: 0.8, Regularity: 0.2, Density: 0.5, Jump: 2, Seed: 99})
			costs, a := setup(g, cl)
			c := NewMapContext(cl)
			c.Map(g, costs, a, DefaultNaive(st))
			m := &c.m // avail and byAvail are context scratch, retained after the run
			ref := make([]int, cl.P)
			for i := range ref {
				ref[i] = i
			}
			sort.SliceStable(ref, func(x, y int) bool {
				if m.avail[ref[x]] != m.avail[ref[y]] {
					return m.avail[ref[x]] < m.avail[ref[y]]
				}
				return ref[x] < ref[y]
			})
			for i := range ref {
				if m.byAvail[i] != ref[i] {
					t.Fatalf("%s/%v: byAvail diverged from full sort at %d: %v vs %v",
						cl.Name, st, i, m.byAvail[i], ref[i])
				}
			}
		}
	}
}

func TestEstimatorRedistTime(t *testing.T) {
	cl := platform.Grillon()
	e := NewEstimator(cl)
	// Same set, same size: free.
	if got := e.RedistTime(1e8, []int{0, 1}, []int{1, 0}); got != 0 {
		t.Errorf("same-set redistribution estimated at %g, want 0", got)
	}
	// Disjoint 1→1: bytes/β + latency.
	want := 1e8/cl.LinkBandwidth + 2*cl.LinkLatency
	if got := e.RedistTime(1e8, []int{0}, []int{1}); math.Abs(got-want) > 1e-9 {
		t.Errorf("1→1 redistribution = %g, want %g", got, want)
	}
	// 1→2 disjoint: sender link is the bottleneck (full volume out).
	if got := e.RedistTime(1e8, []int{0}, []int{1, 2}); got < want-1e-9 {
		t.Errorf("1→2 redistribution = %g, should be ≥ %g (sender-bound)", got, want)
	}
	// Zero bytes: free.
	if got := e.RedistTime(0, []int{0}, []int{1}); got != 0 {
		t.Errorf("zero-byte redistribution = %g", got)
	}
}

func BenchmarkMapDelta100Tasks(b *testing.B) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 100, Width: 0.5, Regularity: 0.8, Density: 0.8, Layered: true, Seed: 1})
	costs, a := setup(g, cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Map(g, costs, cl, a, DefaultNaive(StrategyDelta))
	}
}
