package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/oracle"
)

func TestFFTTaskCountsMatchPaper(t *testing.T) {
	// §IV-A: k ∈ {2, 4, 8, 16} gives 5, 15, 39, 95 tasks.
	want := map[int]int{2: 5, 4: 15, 8: 39, 16: 95}
	for k, n := range want {
		if got := FFTTaskCount(k); got != n {
			t.Errorf("FFTTaskCount(%d) = %d, want %d", k, got, n)
		}
		g := FFT(k, 42)
		if got := g.RealTaskCount(); got != n {
			t.Errorf("FFT(%d) has %d real tasks, want %d", k, got, n)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("FFT(%d): %v", k, err)
		}
	}
}

func TestFFTStructure(t *testing.T) {
	g := FFT(4, 7)
	// Entry is the tree root (real task); exit is virtual (4 butterflies).
	if g.Tasks[g.Entry()].Virtual {
		t.Error("FFT entry should be the real tree root")
	}
	if !g.Tasks[g.Exit()].Virtual {
		t.Error("FFT exit should be virtual (k butterfly exits)")
	}
	// Every path root→exit has the same length (all paths critical):
	// levels tree 0..2 + bfly 1..2 + virtual exit.
	lvl, n := g.Levels()
	if n != 6 {
		t.Fatalf("FFT(4) has %d levels, want 6", n)
	}
	// All real exits (preds of virtual exit) at the same level.
	for _, e := range g.In(g.Exit()) {
		if p := g.Edges[e].From; lvl[p] != 4 {
			t.Errorf("butterfly exit %d at level %d, want 4", p, lvl[p])
		}
	}
}

func TestFFTAllPathsCritical(t *testing.T) {
	g := FFT(8, 3)
	cost := func(tk int) float64 {
		if g.Tasks[tk].Virtual {
			return 0
		}
		return g.Tasks[tk].Ops()
	}
	ec := func(e int) float64 { return 0 }
	_, onCP := oracle.CriticalPath(g, cost, ec)
	for i := range g.Tasks {
		if !onCP[i] {
			t.Fatalf("task %d (%s) not on a critical path; FFT levels should have uniform costs",
				i, g.Tasks[i].Name)
		}
	}
}

func TestFFTRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT(%d) should panic", k)
				}
			}()
			FFT(k, 1)
		}()
	}
}

func TestStrassenShape(t *testing.T) {
	g := Strassen(11)
	if got := g.RealTaskCount(); got != StrassenTaskCount {
		t.Fatalf("Strassen has %d real tasks, want 25", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 entry tasks hang off the virtual entry.
	if got := len(g.Out(g.Entry())); got != 10 {
		t.Errorf("virtual entry has %d children, want 10 (S tasks)", got)
	}
	// 4 result quadrants feed the virtual exit.
	if got := len(g.In(g.Exit())); got != 4 {
		t.Errorf("virtual exit has %d parents, want 4 (C quadrants)", got)
	}
	// Common quadrant size across all real tasks.
	m := -1.0
	for i := range g.Tasks {
		if g.Tasks[i].Virtual {
			continue
		}
		if m < 0 {
			m = g.Tasks[i].M
		} else if g.Tasks[i].M != m {
			t.Fatalf("task %s has m=%g, want common %g", g.Tasks[i].Name, g.Tasks[i].M, m)
		}
	}
}

func TestStrassenLevelsShareCosts(t *testing.T) {
	g := Strassen(5)
	lvl, _ := g.Levels()
	byLevel := map[int][2]float64{}
	for i := range g.Tasks {
		if g.Tasks[i].Virtual {
			continue
		}
		key := lvl[i]
		cur, ok := byLevel[key]
		if !ok {
			byLevel[key] = [2]float64{g.Tasks[i].A, g.Tasks[i].Alpha}
			continue
		}
		if cur[0] != g.Tasks[i].A || cur[1] != g.Tasks[i].Alpha {
			t.Fatalf("level %d has heterogeneous costs", key)
		}
	}
}

func TestRandomExactTaskCount(t *testing.T) {
	for _, n := range []int{25, 50, 100} {
		for _, layered := range []bool{true, false} {
			g := Random(RandomParams{N: n, Width: 0.5, Regularity: 0.8, Density: 0.5, Jump: 2, Layered: layered, Seed: 9})
			if got := g.RealTaskCount(); got != n {
				t.Errorf("Random(n=%d, layered=%v) = %d real tasks", n, layered, got)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("Random(n=%d, layered=%v): %v", n, layered, err)
			}
		}
	}
}

func TestRandomWidthShapesDAG(t *testing.T) {
	narrow := Random(RandomParams{N: 100, Width: 0.2, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 1})
	wide := Random(RandomParams{N: 100, Width: 0.8, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 1})
	if narrow.MaxWidth() >= wide.MaxWidth() {
		t.Errorf("width parameter ineffective: narrow max width %d, wide %d",
			narrow.MaxWidth(), wide.MaxWidth())
	}
}

func TestRandomLayeredSharesCostsPerLevel(t *testing.T) {
	g := Random(RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: true, Seed: 3})
	lvl, _ := g.Levels()
	type sig struct{ m, a, alpha float64 }
	byLevel := map[int]sig{}
	for i := range g.Tasks {
		if g.Tasks[i].Virtual {
			continue
		}
		s := sig{g.Tasks[i].M, g.Tasks[i].A, g.Tasks[i].Alpha}
		if prev, ok := byLevel[lvl[i]]; ok && prev != s {
			t.Fatalf("layered DAG level %d has differing costs", lvl[i])
		} else if !ok {
			byLevel[lvl[i]] = s
		}
	}
}

func TestRandomIrregularVariesCostsWithinLevel(t *testing.T) {
	g := Random(RandomParams{N: 100, Width: 0.8, Regularity: 0.8, Density: 0.8, Layered: false, Seed: 3})
	lvl, _ := g.Levels()
	byLevel := map[int][]float64{}
	for i := range g.Tasks {
		if !g.Tasks[i].Virtual {
			byLevel[lvl[i]] = append(byLevel[lvl[i]], g.Tasks[i].M)
		}
	}
	varied := false
	for _, ms := range byLevel {
		for i := 1; i < len(ms); i++ {
			if ms[i] != ms[0] {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("irregular DAG should draw per-task costs")
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	p := RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.2, Jump: 4, Seed: 77}
	a := Random(p)
	b := Random(p)
	if a.N() != b.N() || len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed must give identical structure")
	}
	for i := range a.Tasks {
		if a.Tasks[i].M != b.Tasks[i].M || a.Tasks[i].A != b.Tasks[i].A {
			t.Fatal("same seed must give identical costs")
		}
	}
	p2 := p
	p2.Seed = 78
	c := Random(p2)
	same := a.N() == c.N() && len(a.Edges) == len(c.Edges)
	if same {
		for i := range a.Tasks {
			if a.Tasks[i].M != c.Tasks[i].M {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestRandomJumpEdgesSkipLevels(t *testing.T) {
	p := RandomParams{N: 100, Width: 0.5, Regularity: 0.8, Density: 0.8, Jump: 4, Seed: 5}
	g := Random(p)
	lvl, _ := g.Levels()
	// With jump=4 and high density at least one edge should span > 1
	// level in the *constructed* hierarchy. (Levels may compress, so just
	// check an edge with span ≥ 2 exists.)
	found := false
	for _, e := range g.Edges {
		if g.Tasks[e.From].Virtual || g.Tasks[e.To].Virtual {
			continue
		}
		if lvl[e.To]-lvl[e.From] >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("jump=4 produced no level-skipping edges")
	}
}

// Property: generated costs always stay inside the paper's bounds and all
// graphs validate.
func TestPropertyRandomCostBounds(t *testing.T) {
	f := func(seed int64, wIdx, dIdx, rIdx uint8) bool {
		widths := []float64{0.2, 0.5, 0.8}
		vals := []float64{0.2, 0.8}
		p := RandomParams{
			N:          25,
			Width:      widths[int(wIdx)%3],
			Density:    vals[int(dIdx)%2],
			Regularity: vals[int(rIdx)%2],
			Jump:       1 + int(seed%3),
			Seed:       seed,
		}
		g := Random(p)
		if g.Validate() != nil {
			return false
		}
		for i := range g.Tasks {
			tk := &g.Tasks[i]
			if tk.Virtual {
				continue
			}
			if tk.M < moldable.MinElements || tk.M > moldable.MaxElements {
				return false
			}
			if tk.A < moldable.MinOpsFactor || tk.A > moldable.MaxOpsFactor {
				return false
			}
			if tk.Alpha < 0 || tk.Alpha > moldable.MaxAlpha {
				return false
			}
		}
		// Edge bytes match producer datasets.
		for _, e := range g.Edges {
			if g.Tasks[e.From].Virtual || g.Tasks[e.To].Virtual {
				continue
			}
			if e.Bytes != g.Tasks[e.From].Bytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParamsName(t *testing.T) {
	p := RandomParams{N: 25, Width: 0.2, Regularity: 0.8, Density: 0.2, Jump: 2, Seed: 4}
	if p.Name() != "irregular/n=25/w=0.2/r=0.8/d=0.2/j=2/seed=4" {
		t.Errorf("Name() = %q", p.Name())
	}
	p.Layered = true
	if p.Name() != "layered/n=25/w=0.2/r=0.8/d=0.2/j=2/seed=4" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func benchGraph(b *testing.B, fn func() *dag.Graph) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn()
	}
}

func BenchmarkRandom100(b *testing.B) {
	benchGraph(b, func() *dag.Graph {
		return Random(RandomParams{N: 100, Width: 0.5, Regularity: 0.8, Density: 0.8, Jump: 2, Seed: 1})
	})
}

func BenchmarkFFT16(b *testing.B) {
	benchGraph(b, func() *dag.Graph { return FFT(16, 1) })
}
