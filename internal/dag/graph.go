// Package dag implements the mixed-parallel application model of the paper:
// a Directed Acyclic Graph G = (N, E) whose nodes are moldable data-parallel
// tasks and whose edges carry the amount of data (in bytes) the producer
// must send to the consumer.
//
// Following §II-A of the paper, every graph is normalized to have a single
// entry and a single exit task. Generators that naturally produce several
// entries or exits (e.g. FFT butterflies, Strassen) add *virtual* tasks:
// zero-cost connector nodes linked with zero-byte edges. Virtual tasks do
// not occupy processors and never induce redistributions; schedulers and
// the simulator treat them as instantaneous.
package dag

import (
	"errors"
	"fmt"
	"math"
)

// Task is one data-parallel (moldable) node of the application graph.
//
// The cost model follows §II-A: the task operates on a dataset of M double
// precision elements (8 bytes each), performs A*M floating point operations
// (A is drawn in [64, 512] by the generators), and has a non-parallelizable
// fraction Alpha in [0, 0.25] under the Amdahl speedup model.
type Task struct {
	ID      int     // index of the task within the graph
	Name    string  // human-readable label ("fft/bfly/2/3", "strassen/P5", ...)
	M       float64 // dataset size in double-precision elements
	A       float64 // operation factor: total ops = A * M
	Alpha   float64 // non-parallelizable fraction (Amdahl)
	Virtual bool    // true for zero-cost entry/exit connector nodes
}

// Ops returns the total number of floating point operations of the task.
func (t *Task) Ops() float64 {
	if t.Virtual {
		return 0
	}
	return t.A * t.M
}

// Bytes returns the volume of data (in bytes) the task communicates to
// each of its children. Following §II-A literally, this volume "is equal
// to m": the dataset occupies 8·m bytes of memory (m double-precision
// elements, bounding m ≤ 121e6 under the 1 GByte node memory cap), but the
// communicated volume is m bytes. This calibration keeps communications
// significant without letting them drown computation — the regime the
// paper targets ("applications for which the communications cannot be
// neglected").
func (t *Task) Bytes() float64 {
	if t.Virtual {
		return 0
	}
	return t.M
}

// Edge is a data dependence: the producer From must send Bytes bytes to the
// consumer To, redistributed between the 1-D block layouts of the two
// allocations.
type Edge struct {
	ID    int
	From  int
	To    int
	Bytes float64
}

// Graph is a mixed-parallel application DAG. The zero value is an empty
// graph ready for use; add nodes with AddTask and edges with AddEdge.
type Graph struct {
	Tasks []Task
	Edges []Edge

	out [][]int // out[t] = edge IDs leaving task t
	in  [][]int // in[t]  = edge IDs entering task t

	// Topological-order memo: graphs are built once and then traversed
	// thousands of times by the allocation loops, so TopoOrder caches its
	// result until the structure changes.
	topoCache []int
	topoOK    bool
	topoValid bool
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(tasks, edges int) *Graph {
	return &Graph{
		Tasks: make([]Task, 0, tasks),
		Edges: make([]Edge, 0, edges),
		out:   make([][]int, 0, tasks),
		in:    make([][]int, 0, tasks),
	}
}

// N returns the number of tasks (including virtual connector tasks).
func (g *Graph) N() int { return len(g.Tasks) }

// AddTask appends a task and returns its ID. The ID field of the argument
// is overwritten with the assigned index.
func (g *Graph) AddTask(t Task) int {
	t.ID = len(g.Tasks)
	g.Tasks = append(g.Tasks, t)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.topoValid = false
	return t.ID
}

// AddVirtual appends a zero-cost virtual task with the given name.
func (g *Graph) AddVirtual(name string) int {
	return g.AddTask(Task{Name: name, Virtual: true})
}

// AddEdge appends a dependence edge carrying the given number of bytes and
// returns its ID. It panics if either endpoint is out of range, mirroring
// slice indexing semantics; generators are expected to be correct by
// construction and Validate catches structural mistakes.
func (g *Graph) AddEdge(from, to int, bytes float64) int {
	if from < 0 || from >= len(g.Tasks) || to < 0 || to >= len(g.Tasks) {
		panic(fmt.Sprintf("dag: edge endpoints (%d,%d) out of range [0,%d)", from, to, len(g.Tasks)))
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, From: from, To: to, Bytes: bytes})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.topoValid = false
	return id
}

// Out returns the IDs of the edges leaving task t.
func (g *Graph) Out(t int) []int { return g.out[t] }

// In returns the IDs of the edges entering task t.
func (g *Graph) In(t int) []int { return g.in[t] }

// Succs returns the successor task IDs of t (one per out-edge; a successor
// reached through parallel edges appears once per edge).
func (g *Graph) Succs(t int) []int {
	s := make([]int, len(g.out[t]))
	for i, e := range g.out[t] {
		s[i] = g.Edges[e].To
	}
	return s
}

// Preds returns the predecessor task IDs of t.
func (g *Graph) Preds(t int) []int {
	p := make([]int, len(g.in[t]))
	for i, e := range g.in[t] {
		p[i] = g.Edges[e].From
	}
	return p
}

// Entries returns the IDs of tasks without predecessors.
func (g *Graph) Entries() []int {
	var es []int
	for i := range g.Tasks {
		if len(g.in[i]) == 0 {
			es = append(es, i)
		}
	}
	return es
}

// Exits returns the IDs of tasks without successors.
func (g *Graph) Exits() []int {
	var xs []int
	for i := range g.Tasks {
		if len(g.out[i]) == 0 {
			xs = append(xs, i)
		}
	}
	return xs
}

// Errors returned by Validate.
var (
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrMultipleEntry = errors.New("dag: graph has more than one entry task")
	ErrMultipleExit  = errors.New("dag: graph has more than one exit task")
	ErrEmpty         = errors.New("dag: graph has no tasks")
	ErrDisconnected  = errors.New("dag: task unreachable from the entry task")
	ErrTaskWork      = errors.New("dag: task needs positive elements and ops factor with finite work")
	ErrTaskAlpha     = errors.New("dag: task serial fraction outside [0, 1)")
	ErrEdgeBytes     = errors.New("dag: edge carries a negative payload or a non-finite one")
	ErrTaskID        = errors.New("dag: task ID does not match its position")
)

// Validate checks the structural invariants assumed by the schedulers —
// non-empty, acyclic, a single entry, a single exit, and every task
// reachable from the entry — then that every task's ID is its index, and
// then the §II-A cost model's value ranges: every non-virtual task has
// positive M and A with a finite product A·M and an Amdahl fraction in
// [0, 1), and every edge carries a finite, non-negative payload. It
// returns the first violated invariant.
func (g *Graph) Validate() error {
	if g.N() == 0 {
		return ErrEmpty
	}
	order, ok := g.TopoOrder()
	if !ok {
		return ErrCycle
	}
	if len(g.Entries()) != 1 {
		return ErrMultipleEntry
	}
	if len(g.Exits()) != 1 {
		return ErrMultipleExit
	}
	// Reachability from the entry: the first element of a topological order
	// of a single-entry graph is the entry itself.
	reach := make([]bool, g.N())
	reach[order[0]] = true
	for _, t := range order {
		if !reach[t] {
			return fmt.Errorf("%w: task %d (%s)", ErrDisconnected, t, g.Tasks[t].Name)
		}
		for _, e := range g.out[t] {
			reach[g.Edges[e].To] = true
		}
	}
	// The negated comparisons also reject NaN; an infinite M or A makes
	// Ops infinite, so one IsInf covers all three.
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("%w: task %d (%s) has ID %d", ErrTaskID, i, t.Name, t.ID)
		}
		if t.Virtual {
			continue
		}
		if !(t.M > 0 && t.A > 0) || math.IsInf(t.Ops(), 1) {
			return fmt.Errorf("%w: task %d (%s) has M=%g, A=%g", ErrTaskWork, i, t.Name, t.M, t.A)
		}
		if !(t.Alpha >= 0 && t.Alpha < 1) {
			return fmt.Errorf("%w: task %d (%s) has alpha %g", ErrTaskAlpha, i, t.Name, t.Alpha)
		}
	}
	for _, e := range g.Edges {
		if !(e.Bytes >= 0) || math.IsInf(e.Bytes, 1) {
			return fmt.Errorf("%w: edge %d→%d has %g bytes", ErrEdgeBytes, e.From, e.To, e.Bytes)
		}
	}
	return nil
}

// Normalize ensures the graph has a single entry and a single exit by
// adding virtual connector tasks when needed. It returns the (possibly new)
// entry and exit task IDs.
func (g *Graph) Normalize() (entry, exit int) {
	entries := g.Entries()
	if len(entries) == 1 {
		entry = entries[0]
	} else {
		entry = g.AddVirtual("virtual-entry")
		for _, t := range entries {
			g.AddEdge(entry, t, 0)
		}
	}
	exits := g.Exits()
	if len(exits) == 1 {
		exit = exits[0]
	} else {
		exit = g.AddVirtual("virtual-exit")
		for _, t := range exits {
			g.AddEdge(t, exit, 0)
		}
	}
	return entry, exit
}

// Entry returns the single entry task ID. It panics if the graph has not
// been normalized to a single entry.
func (g *Graph) Entry() int {
	es := g.Entries()
	if len(es) != 1 {
		panic("dag: Entry called on a graph without a unique entry")
	}
	return es[0]
}

// Exit returns the single exit task ID. It panics if the graph has not
// been normalized to a single exit.
func (g *Graph) Exit() int {
	xs := g.Exits()
	if len(xs) != 1 {
		panic("dag: Exit called on a graph without a unique exit")
	}
	return xs[0]
}

// RealTaskCount returns the number of non-virtual tasks.
func (g *Graph) RealTaskCount() int {
	n := 0
	for i := range g.Tasks {
		if !g.Tasks[i].Virtual {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Tasks: append([]Task(nil), g.Tasks...),
		Edges: append([]Edge(nil), g.Edges...),
		out:   make([][]int, len(g.out)),
		in:    make([][]int, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]int(nil), g.out[i]...)
		c.in[i] = append([]int(nil), g.in[i]...)
	}
	return c // topo memo intentionally not copied; recomputed on demand
}
