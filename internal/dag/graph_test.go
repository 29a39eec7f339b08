package dag_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/oracle"
)

// diamond builds the 4-task diamond 0→{1,2}→3 with unit-ish costs.
func diamond() *dag.Graph {
	g := dag.NewGraph(4, 4)
	for i := 0; i < 4; i++ {
		g.AddTask(dag.Task{Name: "t", M: 4e6, A: 64, Alpha: 0.1})
	}
	g.AddEdge(0, 1, 100)
	g.AddEdge(0, 2, 100)
	g.AddEdge(1, 3, 100)
	g.AddEdge(2, 3, 100)
	return g
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond()
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatal("diamond reported cyclic")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := dag.NewGraph(2, 2)
	g.AddTask(dag.Task{})
	g.AddTask(dag.Task{})
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 0)
	if _, ok := g.TopoOrder(); ok {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); !errors.Is(err, dag.ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestValidate(t *testing.T) {
	g := diamond()
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond should validate: %v", err)
	}
	if err := dag.NewGraph(0, 0).Validate(); !errors.Is(err, dag.ErrEmpty) {
		t.Fatalf("empty graph: got %v", err)
	}
	// Two entries.
	g2 := dag.NewGraph(3, 2)
	g2.AddTask(dag.Task{})
	g2.AddTask(dag.Task{})
	g2.AddTask(dag.Task{})
	g2.AddEdge(0, 2, 0)
	g2.AddEdge(1, 2, 0)
	if err := g2.Validate(); !errors.Is(err, dag.ErrMultipleEntry) {
		t.Fatalf("got %v, want ErrMultipleEntry", err)
	}
}

// TestValidateCostValues pins the value checks: each out-of-model task or
// edge value fails with its own sentinel, while virtual tasks (zero cost
// by construction) pass.
func TestValidateCostValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(g *dag.Graph)
		want error
	}{
		{"zero elements", func(g *dag.Graph) { g.Tasks[1].M = 0 }, dag.ErrTaskWork},
		{"negative elements", func(g *dag.Graph) { g.Tasks[2].M = -4e6 }, dag.ErrTaskWork},
		{"zero ops factor", func(g *dag.Graph) { g.Tasks[0].A = 0 }, dag.ErrTaskWork},
		{"NaN elements", func(g *dag.Graph) { g.Tasks[3].M = math.NaN() }, dag.ErrTaskWork},
		{"infinite elements", func(g *dag.Graph) { g.Tasks[1].M = math.Inf(1) }, dag.ErrTaskWork},
		{"infinite ops factor", func(g *dag.Graph) { g.Tasks[2].A = math.Inf(1) }, dag.ErrTaskWork},
		{"NaN ops factor", func(g *dag.Graph) { g.Tasks[2].A = math.NaN() }, dag.ErrTaskWork},
		{"work overflows", func(g *dag.Graph) { g.Tasks[1].M, g.Tasks[1].A = 1e308, 64 }, dag.ErrTaskWork},
		{"alpha one", func(g *dag.Graph) { g.Tasks[1].Alpha = 1 }, dag.ErrTaskAlpha},
		{"alpha 1.5", func(g *dag.Graph) { g.Tasks[1].Alpha = 1.5 }, dag.ErrTaskAlpha},
		{"alpha -3", func(g *dag.Graph) { g.Tasks[2].Alpha = -3 }, dag.ErrTaskAlpha},
		{"negative edge bytes", func(g *dag.Graph) { g.Edges[2].Bytes = -5e6 }, dag.ErrEdgeBytes},
		{"infinite edge bytes", func(g *dag.Graph) { g.Edges[2].Bytes = math.Inf(1) }, dag.ErrEdgeBytes},
		{"NaN edge bytes", func(g *dag.Graph) { g.Edges[2].Bytes = math.NaN() }, dag.ErrEdgeBytes},
		{"large finite work", func(g *dag.Graph) { g.Tasks[1].M, g.Tasks[1].A = 1e306, 64 }, nil},
		{"task ID off its index", func(g *dag.Graph) { g.Tasks[2].ID = 1 }, dag.ErrTaskID},
		{"zero edge bytes", func(g *dag.Graph) { g.Edges[2].Bytes = 0 }, nil},
		{"alpha zero", func(g *dag.Graph) { g.Tasks[1].Alpha = 0 }, nil},
		{"virtual zero cost", func(g *dag.Graph) { g.Tasks[0] = dag.Task{ID: 0, Name: "entry", Virtual: true} }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := diamond()
			tc.edit(g)
			if err := g.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	// fork with 2 entries and 2 exits
	g := dag.NewGraph(4, 0)
	for i := 0; i < 4; i++ {
		g.AddTask(dag.Task{M: 5e6, A: 100})
	}
	g.AddEdge(0, 2, 10)
	g.AddEdge(1, 3, 10)
	entry, exit := g.Normalize()
	if err := g.Validate(); err != nil {
		t.Fatalf("normalized graph invalid: %v", err)
	}
	if !g.Tasks[entry].Virtual || !g.Tasks[exit].Virtual {
		t.Error("normalize should add virtual entry/exit")
	}
	if g.RealTaskCount() != 4 {
		t.Errorf("RealTaskCount = %d, want 4", g.RealTaskCount())
	}
	if g.Entry() != entry || g.Exit() != exit {
		t.Error("Entry/Exit accessors disagree with Normalize")
	}
}

func TestNormalizeIdempotentOnSingleEntryExit(t *testing.T) {
	g := diamond()
	n := g.N()
	entry, exit := g.Normalize()
	if g.N() != n {
		t.Fatalf("normalize changed task count %d -> %d", n, g.N())
	}
	if entry != 0 || exit != 3 {
		t.Fatalf("entry/exit = %d/%d, want 0/3", entry, exit)
	}
}

func TestLevelsAndWidth(t *testing.T) {
	g := diamond()
	lvl, n := g.Levels()
	if n != 3 {
		t.Fatalf("levels = %d, want 3", n)
	}
	want := []int{0, 1, 1, 2}
	for i, w := range want {
		if lvl[i] != w {
			t.Errorf("level[%d] = %d, want %d", i, lvl[i], w)
		}
	}
	if w := g.MaxWidth(); w != 2 {
		t.Errorf("MaxWidth = %d, want 2", w)
	}
}

func TestBottomLevelsChain(t *testing.T) {
	g := dag.NewGraph(3, 2)
	for i := 0; i < 3; i++ {
		g.AddTask(dag.Task{})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	cost := func(t int) float64 { return float64(t + 1) } // 1,2,3
	ec := func(e int) float64 { return 0.5 }
	bl := g.BottomLevels(cost, ec)
	// bl[2]=3; bl[1]=2+0.5+3=5.5; bl[0]=1+0.5+5.5=7
	want := []float64{7, 5.5, 3}
	for i := range want {
		if diff := bl[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bl[%d] = %g, want %g", i, bl[i], want[i])
		}
	}
	if cp := oracle.CriticalPathLength(g, cost, ec); cp != 7 {
		t.Errorf("C∞ = %g, want 7", cp)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := diamond()
	cost := func(t int) float64 {
		if t == 1 {
			return 10 // make branch through 1 critical
		}
		return 1
	}
	ec := func(e int) float64 { return 0 }
	path, onCP := oracle.CriticalPath(g, cost, ec)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 3 {
		t.Fatalf("critical path = %v, want [0 1 3]", path)
	}
	wantCP := []bool{true, true, false, true}
	for i, w := range wantCP {
		if onCP[i] != w {
			t.Errorf("onCP[%d] = %v, want %v", i, onCP[i], w)
		}
	}
}

func TestTopLevels(t *testing.T) {
	g := diamond()
	cost := func(t int) float64 { return 1 }
	ec := func(e int) float64 { return 2 }
	tl := g.TopLevels(cost, ec)
	want := []float64{0, 3, 3, 6}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("tl[%d] = %g, want %g", i, tl[i], want[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 dag.Graph
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || len(g2.Edges) != len(g.Edges) {
		t.Fatalf("round trip lost structure: %d/%d tasks, %d/%d edges",
			g2.N(), g.N(), len(g2.Edges), len(g.Edges))
	}
	if got := g2.Out(0); len(got) != 2 {
		t.Errorf("adjacency not rebuilt: out(0) = %v", got)
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond()
	g.Tasks[0].Name = "root"
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph G", "root", "t0 -> t1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// randomLayeredGraph builds a random layered DAG for property testing.
func randomLayeredGraph(r *rand.Rand) *dag.Graph {
	levels := 2 + r.Intn(5)
	g := dag.NewGraph(0, 0)
	var prev []int
	for l := 0; l < levels; l++ {
		width := 1 + r.Intn(4)
		var cur []int
		for i := 0; i < width; i++ {
			cur = append(cur, g.AddTask(dag.Task{M: 4e6, A: 64}))
		}
		for _, v := range cur {
			if len(prev) == 0 {
				continue
			}
			// at least one parent
			g.AddEdge(prev[r.Intn(len(prev))], v, 1)
			for _, u := range prev {
				if r.Float64() < 0.3 {
					g.AddEdge(u, v, 1)
				}
			}
		}
		prev = cur
	}
	g.Normalize()
	return g
}

func TestPropertyRandomGraphsAcyclicAndOrdered(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(r)
		order, ok := g.TopoOrder()
		if !ok {
			return false
		}
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBottomLevelsDecreaseAlongEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(r)
		cost := func(t int) float64 { return 1 + float64(t%7) }
		ec := func(e int) float64 { return float64(e % 3) }
		bl := g.BottomLevels(cost, ec)
		for _, e := range g.Edges {
			// bl(from) >= cost(from) + ec + bl(to)
			if bl[e.From] < cost(e.From)+ec(e.ID)+bl[e.To]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
