package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// validSchedule builds a well-formed 2-task schedule for the error tests.
func validSchedule(g *dag.Graph) *Schedule {
	return &Schedule{
		Alloc:     []int{2, 2},
		Procs:     [][]int{{0, 1}, {2, 3}},
		Order:     []int{0, 1},
		EstStart:  []float64{0, 1},
		EstFinish: []float64{1, 2},
	}
}

func twoTaskChain() *dag.Graph {
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 5e6, A: 100, Alpha: 0})
	g.AddTask(dag.Task{Name: "b", M: 5e6, A: 100, Alpha: 0})
	g.AddEdge(0, 1, 5e6)
	return g
}

func TestScheduleValidateAcceptsValid(t *testing.T) {
	g := twoTaskChain()
	if err := validSchedule(g).Validate(g, platform.Chti()); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidateErrors(t *testing.T) {
	g := twoTaskChain()
	cl := platform.Chti()
	cases := []struct {
		name   string
		mutate func(*Schedule)
		want   string
	}{
		{"short arrays", func(s *Schedule) { s.Alloc = s.Alloc[:1] }, "sized"},
		{"zero alloc", func(s *Schedule) { s.Alloc[0] = 0 }, "outside"},
		{"alloc above P", func(s *Schedule) { s.Alloc[0] = cl.P + 1 }, "outside"},
		{"procs/alloc mismatch", func(s *Schedule) { s.Procs[0] = []int{0} }, "procs"},
		{"invalid processor", func(s *Schedule) { s.Procs[0] = []int{0, cl.P} }, "invalid processor"},
		{"duplicate processor", func(s *Schedule) { s.Procs[0] = []int{3, 3} }, "twice"},
		{"order not a permutation", func(s *Schedule) { s.Order = []int{0, 0} }, "permutation"},
		{"order violates precedence", func(s *Schedule) { s.Order = []int{1, 0} }, "before its predecessor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSchedule(g)
			tc.mutate(s)
			err := s.Validate(g, cl)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScheduleValidateVirtualWithAllocation(t *testing.T) {
	g := dag.NewGraph(1, 0)
	g.AddVirtual("v")
	s := &Schedule{
		Alloc: []int{1}, Procs: [][]int{{0}}, Order: []int{0},
		EstStart: []float64{0}, EstFinish: []float64{0},
	}
	if err := s.Validate(g, platform.Chti()); err == nil {
		t.Fatal("virtual task with an allocation must be rejected")
	}
}

// sortProcs returns a copy of procs sorted ascending, for set comparisons
// in these tests (schedules keep rank order, which is meaningful).
func sortProcs(procs []int) []int {
	c := append([]int(nil), procs...)
	sort.Ints(c)
	return c
}

func TestSortProcs(t *testing.T) {
	in := []int{5, 1, 3}
	out := sortProcs(in)
	if out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Errorf("sortProcs = %v", out)
	}
	if in[0] != 5 {
		t.Error("sortProcs must not mutate its input")
	}
}

func TestEstMakespanEmpty(t *testing.T) {
	s := &Schedule{}
	if s.EstMakespan() != 0 {
		t.Error("empty schedule estimate should be 0")
	}
}

func TestClaimingGrantsParentOnce(t *testing.T) {
	// Fork: one parent, three equal-size children. With one operation per
	// element the redistribution dwarfs the computation, so queueing behind
	// a sibling on the parent's processors still beats moving the data and
	// the finish-time guard would let every child adopt. Claiming lets
	// exactly one child inherit the parent's set; the baseline maps the
	// others.
	cl := platform.Grillon()
	g := dag.NewGraph(4, 3)
	for i := 0; i < 4; i++ {
		g.AddTask(dag.Task{Name: "f", M: 40e6, A: 1, Alpha: 0})
	}
	for c := 1; c <= 3; c++ {
		g.AddEdge(0, c, g.Tasks[0].Bytes())
	}
	g.Normalize()
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := []int{4, 4, 4, 4, 0}

	s := Map(g, costs, cl, a, DefaultNaive(StrategyDelta))
	inherited := 0
	for c := 1; c <= 3; c++ {
		if sameProcs(s.Procs[c], s.Procs[0]) {
			inherited++
		}
	}
	if inherited != 1 {
		t.Errorf("exactly one child should inherit the parent's set; got %d", inherited)
	}
}

func sameProcs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortProcs(a), sortProcs(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
