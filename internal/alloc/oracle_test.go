package alloc_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
)

// TestAllocOracleEquivalence pits the incremental engine against the
// preserved full-rewalk reference on randomized graphs spanning every
// method, all paper clusters and the production-scale
// presets. The contract is byte-identical allocations — the engine must
// reproduce every float comparison of the reference walk exactly, not
// merely approximate it (same methodology as the PR 2 estimator overhaul).
func TestAllocOracleEquivalence(t *testing.T) {
	clusters := []*platform.Cluster{
		platform.Chti(), platform.Grillon(), platform.Grelon(),
		platform.Big512(), platform.Big1024(),
	}
	type shape struct {
		n       int
		width   float64
		reg     float64
		dens    float64
		jump    int
		layered bool
	}
	shapes := []shape{
		{25, 0.2, 0.2, 0.2, 1, true},
		{50, 0.5, 0.8, 0.5, 1, true},
		{100, 0.8, 0.8, 0.8, 1, true},
		{50, 0.5, 0.2, 0.2, 2, false},
		{100, 0.8, 0.2, 0.8, 4, false},
	}
	opts := []alloc.Options{{Method: alloc.CPA}, {Method: alloc.HCPA}, {Method: alloc.MCPA}}
	for ci, cl := range clusters {
		for si, sh := range shapes {
			for seed := int64(0); seed < 3; seed++ {
				g := gen.Random(gen.RandomParams{
					N: sh.n, Width: sh.width, Regularity: sh.reg,
					Density: sh.dens, Jump: sh.jump, Layered: sh.layered,
					Seed: seed*31 + int64(ci*7+si),
				})
				costs := moldable.NewCosts(g, cl.SpeedGFlops)
				for oi, o := range opts {
					want := oracle.ComputeAlloc(g, costs, cl, o)
					got := alloc.Compute(g, costs, cl, o)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s shape %d seed %d opts %d (%+v): alloc[%d] = %d, want %d",
								cl.Name, si, seed, oi, o, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAllocOracleEquivalenceStructured covers the regular generators whose
// graphs have the widest levels (FFT) and the deepest chains of identical
// tasks (Strassen) — the two extremes for the cone-repair pruning.
func TestAllocOracleEquivalenceStructured(t *testing.T) {
	clusters := []*platform.Cluster{platform.Grelon(), platform.Big1024()}
	graphs := map[string]func() *dag.Graph{
		"fft16":    func() *dag.Graph { return gen.FFT(16, 3) },
		"strassen": func() *dag.Graph { return gen.Strassen(9) },
	}
	for _, cl := range clusters {
		for name, build := range graphs {
			g := build()
			costs := moldable.NewCosts(g, cl.SpeedGFlops)
			for _, m := range []alloc.Method{alloc.CPA, alloc.HCPA, alloc.MCPA} {
				o := alloc.Options{Method: m}
				want := oracle.ComputeAlloc(g, costs, cl, o)
				got := alloc.Compute(g, costs, cl, o)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s/%s: alloc[%d] = %d, want %d", cl.Name, name, m, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAllocDegenerateGraphs checks the corner cases the engine must not
// mishandle: an all-virtual graph (no refinement at all) and a single
// real task (the whole DAG is the critical path).
func TestAllocDegenerateGraphs(t *testing.T) {
	cl := platform.Grillon()

	gv := dag.NewGraph(2, 1)
	gv.AddVirtual("entry")
	gv.AddVirtual("exit")
	gv.AddEdge(0, 1, 0)
	costs := moldable.NewCosts(gv, cl.SpeedGFlops)
	for i, v := range alloc.Compute(gv, costs, cl, alloc.DefaultOptions()) {
		if v != 0 {
			t.Errorf("all-virtual: alloc[%d] = %d, want 0", i, v)
		}
	}

	gs := dag.NewGraph(1, 0)
	gs.AddTask(dag.Task{Name: "solo", M: 50e6, A: 256, Alpha: 0.05})
	costs = moldable.NewCosts(gs, cl.SpeedGFlops)
	want := oracle.ComputeAlloc(gs, costs, cl, alloc.DefaultOptions())
	got := alloc.Compute(gs, costs, cl, alloc.DefaultOptions())
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("single-task: alloc[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
