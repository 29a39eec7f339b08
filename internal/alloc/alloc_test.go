package alloc_test

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
)

// chainGraph builds an n-task chain with identical heavy tasks.
func chainGraph(n int) *dag.Graph {
	g := dag.NewGraph(n, n-1)
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Name: "c", M: 50e6, A: 256, Alpha: 0.05})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, g.Tasks[i-1].Bytes())
	}
	return g
}

// forkJoin builds entry → k parallel tasks → exit.
func forkJoin(k int) *dag.Graph {
	g := dag.NewGraph(k+2, 2*k)
	entry := g.AddTask(dag.Task{Name: "in", M: 10e6, A: 64, Alpha: 0.1})
	exit := g.AddTask(dag.Task{Name: "out", M: 10e6, A: 64, Alpha: 0.1})
	for i := 0; i < k; i++ {
		t := g.AddTask(dag.Task{Name: "mid", M: 50e6, A: 256, Alpha: 0.1})
		g.AddEdge(entry, t, g.Tasks[entry].Bytes())
		g.AddEdge(t, exit, g.Tasks[t].Bytes())
	}
	return g
}

func TestChainGetsLargeAllocations(t *testing.T) {
	g := chainGraph(5)
	cl := platform.Grillon()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.Options{Method: alloc.CPA})
	for i, v := range a {
		if v < 2 {
			t.Errorf("chain task %d allocation %d; every chain task is critical and should be parallelized", i, v)
		}
	}
}

func TestAllocationsWithinBounds(t *testing.T) {
	g := forkJoin(10)
	for _, cl := range platform.PaperClusters() {
		costs := moldable.NewCosts(g, cl.SpeedGFlops)
		for _, m := range []alloc.Method{alloc.CPA, alloc.HCPA, alloc.MCPA} {
			a := alloc.Compute(g, costs, cl, alloc.Options{Method: m})
			for i, v := range a {
				if g.Tasks[i].Virtual {
					if v != 0 {
						t.Errorf("%s/%s: virtual task allocated %d", cl.Name, m, v)
					}
					continue
				}
				if v < 1 || v > cl.P {
					t.Errorf("%s/%s: task %d allocation %d outside [1,%d]", cl.Name, m, i, v, cl.P)
				}
			}
		}
	}
}

func TestTerminationCriterion(t *testing.T) {
	// At the fixpoint either C∞ ≤ W or the critical path is saturated.
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.8, Density: 0.2, Layered: true, Seed: 21})
	cl := platform.Grillon()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())

	taskCost := func(tk int) float64 {
		if g.Tasks[tk].Virtual {
			return 0
		}
		return costs.Time(tk, a[tk])
	}
	edgeCost := func(e int) float64 { return 0 } // computation-only C∞
	cInf := oracle.CriticalPathLength(g, taskCost, edgeCost)
	work := 0.0
	real := 0
	for i := range g.Tasks {
		if !g.Tasks[i].Virtual {
			work += costs.Work(i, a[i])
			real++
		}
	}
	denom := float64(cl.P)
	if real < cl.P {
		denom = float64(real)
	}
	// Per-task level caps of HCPA.
	lvl, nl := g.Levels()
	width := make([]int, nl)
	for i := range g.Tasks {
		if !g.Tasks[i].Virtual {
			width[lvl[i]]++
		}
	}
	capOf := func(i int) int {
		c := (cl.P + width[lvl[i]] - 1) / width[lvl[i]]
		if c < 1 {
			c = 1
		}
		return c
	}
	if cInf > work/denom {
		// Allowed only if every CP task is saturated (cluster or level
		// cap) or gains nothing from one more processor.
		_, onCP := oracle.CriticalPath(g, taskCost, edgeCost)
		for i := range g.Tasks {
			if !onCP[i] || g.Tasks[i].Virtual {
				continue
			}
			if a[i] < cl.P && a[i] < capOf(i) && costs.Time(i, a[i])-costs.Time(i, a[i]+1) > 0 {
				t.Fatalf("allocation stopped early: C∞=%g > W=%g with improvable CP task %d (alloc %d, cap %d)",
					cInf, work/denom, i, a[i], capOf(i))
			}
		}
	}
}

func TestHCPAAllocatesNoMoreThanCPAOnLargeCluster(t *testing.T) {
	// grelon has P=120 > N: HCPA's area denominator min(P, N) stops the
	// loop earlier, so per-task allocations are never larger than CPA's
	// and total work is lower or equal.
	cl := platform.Grelon()
	for seed := int64(0); seed < 5; seed++ {
		g := gen.Random(gen.RandomParams{N: 25, Width: 0.5, Regularity: 0.8, Density: 0.8, Layered: true, Seed: seed})
		costs := moldable.NewCosts(g, cl.SpeedGFlops)
		cpa := alloc.Compute(g, costs, cl, alloc.Options{Method: alloc.CPA})
		hcpa := alloc.Compute(g, costs, cl, alloc.Options{Method: alloc.HCPA})
		wCPA := costs.TotalWork(cpa)
		wHCPA := costs.TotalWork(hcpa)
		if wHCPA > wCPA+1e-9 {
			t.Errorf("seed %d: HCPA total work %g exceeds CPA %g", seed, wHCPA, wCPA)
		}
	}
}

func TestMCPARespectsLevelBudget(t *testing.T) {
	cl := platform.Chti() // small cluster, easy to exceed
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.8, Regularity: 0.8, Density: 0.8, Layered: true, Seed: 2})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.Options{Method: alloc.MCPA})
	lvl, n := g.Levels()
	use := make([]int, n)
	for i := range g.Tasks {
		if !g.Tasks[i].Virtual {
			use[lvl[i]] += a[i]
		}
	}
	for l, u := range use {
		if u > cl.P {
			t.Errorf("level %d uses %d processors > P=%d", l, u, cl.P)
		}
	}
}

func TestMethodString(t *testing.T) {
	if alloc.CPA.String() != "cpa" || alloc.HCPA.String() != "hcpa" || alloc.MCPA.String() != "mcpa" {
		t.Error("Method.String mismatch")
	}
	if alloc.Method(99).String() != "Method(99)" {
		t.Error("out-of-range method should stringify to 'Method(99)'")
	}
}

// Property: allocations are deterministic and within bounds across random
// graphs and clusters.
func TestPropertyAllocationSane(t *testing.T) {
	clusters := platform.PaperClusters()
	f := func(seed int64, mIdx, cIdx uint8) bool {
		cl := clusters[int(cIdx)%len(clusters)]
		m := []alloc.Method{alloc.CPA, alloc.HCPA, alloc.MCPA}[int(mIdx)%3]
		g := gen.Random(gen.RandomParams{N: 25, Width: 0.5, Regularity: 0.2, Density: 0.2, Layered: false, Jump: 2, Seed: seed})
		costs := moldable.NewCosts(g, cl.SpeedGFlops)
		a1 := alloc.Compute(g, costs, cl, alloc.Options{Method: m})
		a2 := alloc.Compute(g, costs, cl, alloc.Options{Method: m})
		for i := range a1 {
			if a1[i] != a2[i] {
				return false
			}
			if g.Tasks[i].Virtual {
				if a1[i] != 0 {
					return false
				}
			} else if a1[i] < 1 || a1[i] > cl.P {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHCPAAllocation100(b *testing.B) {
	g := gen.Random(gen.RandomParams{N: 100, Width: 0.5, Regularity: 0.8, Density: 0.8, Layered: true, Seed: 1})
	cl := platform.Grelon()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	}
}
