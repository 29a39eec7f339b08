package dag_test

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/oracle"
)

// randomDAG builds a layered random DAG with edges only from lower to
// higher IDs, so it is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) (*dag.Graph, []float64, []float64) {
	g := dag.NewGraph(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddTask(dag.Task{Name: "t", M: 1e7, A: 100, Alpha: 0.1})
	}
	for v := 1; v < n; v++ {
		// At least one parent keeps the graph connected enough to be
		// interesting; extra edges with probability 0.25 each.
		u := rng.Intn(v)
		g.AddEdge(u, v, 1e6)
		for u := 0; u < v; u++ {
			if rng.Float64() < 0.25 {
				g.AddEdge(u, v, 1e6)
			}
		}
	}
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = rng.Float64() * 10
	}
	edge := make([]float64, len(g.Edges))
	for i := range edge {
		edge[i] = rng.Float64()
	}
	return g, cost, edge
}

// TestLevelTrackerMatchesFullRecompute drives random cost updates through a
// LevelTracker and checks after each one that every level is bit-identical
// to a from-scratch BottomLevelsInto/oracle.TopLevels pass — the exact
// contract the incremental allocation engine relies on.
func TestLevelTrackerMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, cost, edge := randomDAG(rng, 40)

		ref := append([]float64(nil), cost...)
		lt := dag.NewLevelTracker(g, cost, edge)
		if lt == nil {
			t.Fatal("NewLevelTracker returned nil for an acyclic graph")
		}
		check := func(step int) {
			t.Helper()
			bl := g.BottomLevelsInto(nil, func(tk int) float64 { return ref[tk] }, func(e int) float64 { return edge[e] })
			tl := oracle.TopLevels(g, func(tk int) float64 { return ref[tk] }, func(e int) float64 { return edge[e] })
			for tk := 0; tk < g.N(); tk++ {
				if lt.BottomLevel(tk) != bl[tk] {
					t.Fatalf("seed %d step %d: bottom[%d] = %v, want %v", seed, step, tk, lt.BottomLevel(tk), bl[tk])
				}
				if lt.TopLevel(tk) != tl[tk] {
					t.Fatalf("seed %d step %d: top[%d] = %v, want %v", seed, step, tk, lt.TopLevel(tk), tl[tk])
				}
			}
		}
		check(-1)
		for step := 0; step < 50; step++ {
			x := rng.Intn(g.N())
			c := rng.Float64() * 10
			ref[x] = c
			changed := lt.SetTaskCost(x, c)
			// Every reported change must be real, relative to the tracker's
			// own pre-update state: dedup is per call.
			seen := map[int]bool{}
			for _, tk := range changed {
				if seen[tk] {
					t.Fatalf("seed %d step %d: task %d reported changed twice", seed, step, tk)
				}
				seen[tk] = true
			}
			// Soundness of the cone bound: a cost change at x may only move
			// levels of x itself, its ancestors (bottom levels) and its
			// descendants (top levels) — the sets VisitAncestors and
			// VisitDescendants enumerate.
			cone := map[int]bool{x: true}
			g.VisitAncestors(x, func(u int) { cone[u] = true })
			g.VisitDescendants(x, func(u int) { cone[u] = true })
			for _, tk := range changed {
				if !cone[tk] {
					t.Fatalf("seed %d step %d: task %d changed outside the cone of %d", seed, step, tk, x)
				}
			}
			check(step)
		}
	}
}

// TestLevelTrackerNoChangeOnIdenticalCost checks the fast path: setting the
// same cost reports no changes.
func TestLevelTrackerNoChangeOnIdenticalCost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, cost, edge := randomDAG(rng, 20)
	lt := dag.NewLevelTracker(g, cost, edge)
	if got := lt.SetTaskCost(5, cost[5]); len(got) != 0 {
		t.Fatalf("identical cost reported %d changes", len(got))
	}
}

// TestLevelTrackerCyclicGraph checks that a cyclic graph yields nil.
func TestLevelTrackerCyclicGraph(t *testing.T) {
	g := dag.NewGraph(2, 2)
	g.AddTask(dag.Task{Name: "a"})
	g.AddTask(dag.Task{Name: "b"})
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 0)
	if lt := dag.NewLevelTracker(g, []float64{1, 1}, []float64{0, 0}); lt != nil {
		t.Fatal("want nil tracker for cyclic graph")
	}
}

// TestVisitConeOrders checks membership and ordering of the ancestor and
// descendant cone iterators on a diamond with a tail.
func TestVisitConeOrders(t *testing.T) {
	// 0 → {1,2} → 3 → 4
	g := dag.NewGraph(5, 6)
	for i := 0; i < 5; i++ {
		g.AddTask(dag.Task{Name: "t"})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)

	var anc []int
	g.VisitAncestors(3, func(u int) { anc = append(anc, u) })
	if len(anc) != 3 {
		t.Fatalf("ancestors of 3 = %v, want {2,1,0}", anc)
	}
	for i := 1; i < len(anc); i++ {
		if anc[i] >= anc[i-1] {
			t.Fatalf("ancestors not in decreasing topological position: %v", anc)
		}
	}

	var desc []int
	g.VisitDescendants(0, func(u int) { desc = append(desc, u) })
	if len(desc) != 4 {
		t.Fatalf("descendants of 0 = %v, want {1,2,3,4}", desc)
	}
	for i := 1; i < len(desc); i++ {
		if desc[i] <= desc[i-1] {
			t.Fatalf("descendants not in increasing topological position: %v", desc)
		}
	}
}
