package dag

// This file provides the incremental counterpart of levels.go for the
// allocation refinement loops: a LevelTracker maintains the bottom and top
// levels of every task under point updates of a single task's cost,
// recomputing only the affected ancestor/descendant cone instead of
// re-walking the whole DAG. The recomputation is bit-identical to a full
// bottom- and top-level pass (Graph.BottomLevelsInto and the test oracle's
// TopLevels): every task's level is evaluated with the exact same float
// operations in the exact same edge order, and a task outside the cone
// keeps a value whose inputs did not change.

// LevelTracker maintains bottom levels (longest path to the exit,
// including the task's own cost) and top levels (longest path from the
// entry, excluding the task) under incremental task-cost updates.
//
// The tracker owns the task-cost slice passed to NewLevelTracker and
// mutates it through SetTaskCost; the edge-cost slice is fixed for the
// lifetime of the tracker (allocation procedures never change edge
// estimates during refinement). The graph structure must not change while
// a tracker is live.
type LevelTracker struct {
	cost []float64 // per-task cost, updated via SetTaskCost

	// Flattened adjacency (CSR layout) with edge costs copied inline:
	// successors of t are outTo[outStart[t]:outStart[t+1]], in the same
	// order as Graph.Out(t) so the max-folds visit operands in the same
	// order as the full passes. The cone sweeps touch these arrays
	// thousands of times per allocation run; contiguous storage beats the
	// graph's slice-of-slices by a wide margin.
	outStart, inStart []int
	outTo, inFrom     []int
	outCost, inCost   []float64

	bl, tl []float64
	pos    []int // pos[t] = topological position of task t
	byPos  []int // byPos[i] = task at topological position i

	dirty   []bool // pending recomputation marks, indexed by task
	changed []int  // scratch for SetTaskCost's result
}

// NewLevelTracker computes the initial levels for the given per-task and
// per-edge costs and returns a tracker ready for incremental updates. It
// returns nil if the graph is cyclic. len(taskCost) must be g.N() and
// len(edgeCost) must be len(g.Edges).
func NewLevelTracker(g *Graph, taskCost, edgeCost []float64) *LevelTracker {
	order, ok := g.TopoOrder()
	if !ok {
		return nil
	}
	n := g.N()
	lt := &LevelTracker{
		cost:     taskCost,
		outStart: make([]int, n+1),
		inStart:  make([]int, n+1),
		outTo:    make([]int, len(g.Edges)),
		inFrom:   make([]int, len(g.Edges)),
		outCost:  make([]float64, len(g.Edges)),
		inCost:   make([]float64, len(g.Edges)),
		bl:       make([]float64, n),
		tl:       make([]float64, n),
		pos:      make([]int, n),
		byPos:    order,
		dirty:    make([]bool, n),
	}
	k := 0
	for t := 0; t < n; t++ {
		lt.outStart[t] = k
		for _, e := range g.out[t] {
			lt.outTo[k] = g.Edges[e].To
			lt.outCost[k] = edgeCost[e]
			k++
		}
	}
	lt.outStart[n] = k
	k = 0
	for t := 0; t < n; t++ {
		lt.inStart[t] = k
		for _, e := range g.in[t] {
			lt.inFrom[k] = g.Edges[e].From
			lt.inCost[k] = edgeCost[e]
			k++
		}
	}
	lt.inStart[n] = k
	for i, t := range order {
		lt.pos[t] = i
	}
	for i := n - 1; i >= 0; i-- {
		t := order[i]
		lt.bl[t] = lt.recomputeBottom(t)
	}
	for _, t := range order {
		lt.tl[t] = lt.recomputeTop(t)
	}
	return lt
}

// recomputeBottom evaluates the bottom-level recurrence of task t from the
// current levels of its successors, mirroring Graph.BottomLevelsInto exactly.
func (lt *LevelTracker) recomputeBottom(t int) float64 {
	best := 0.0
	for k := lt.outStart[t]; k < lt.outStart[t+1]; k++ {
		if v := lt.outCost[k] + lt.bl[lt.outTo[k]]; v > best {
			best = v
		}
	}
	return lt.cost[t] + best
}

// recomputeTop evaluates the top-level recurrence of task t from the
// current levels of its predecessors, mirroring the full top-level pass
// exactly.
func (lt *LevelTracker) recomputeTop(t int) float64 {
	top := 0.0
	for k := lt.inStart[t]; k < lt.inStart[t+1]; k++ {
		from := lt.inFrom[k]
		if v := lt.tl[from] + lt.cost[from] + lt.inCost[k]; v > top {
			top = v
		}
	}
	return top
}

// SetTaskCost updates the cost of task x and restores both level arrays,
// recomputing only tasks whose value actually changes: the bottom levels
// of x and its ancestors (processed in decreasing topological position, so
// every successor is final before its predecessors), and the top levels of
// x's descendants (increasing position). Propagation stops at any task
// whose recomputed level is bit-identical to its old value, which is what
// keeps the cone narrow on wide DAGs.
//
// The pending recomputations are tracked as dirty flags swept along the
// topological order with a live counter for early exit: for the dense
// cones the refinement loops produce, a flag sweep beats a priority-queue
// worklist by a wide constant factor, and the sweep stops as soon as the
// cone dies out.
//
// It returns the tasks whose bottom or top level changed (the two sets are
// disjoint: bottom changes hit ancestors of x, top changes hit strict
// descendants). The slice is reused by the next SetTaskCost call.
func (lt *LevelTracker) SetTaskCost(x int, c float64) []int {
	lt.changed = lt.changed[:0]
	if lt.cost[x] == c {
		return lt.changed
	}
	lt.cost[x] = c

	// Bottom levels: x seeds the ancestor cone (its own cost term changed).
	lt.dirty[x] = true
	pending := 1
	for i := lt.pos[x]; i >= 0 && pending > 0; i-- {
		t := lt.byPos[i]
		if !lt.dirty[t] {
			continue
		}
		lt.dirty[t] = false
		pending--
		if nb := lt.recomputeBottom(t); nb != lt.bl[t] {
			lt.bl[t] = nb
			lt.changed = append(lt.changed, t)
			for k := lt.inStart[t]; k < lt.inStart[t+1]; k++ {
				if from := lt.inFrom[k]; !lt.dirty[from] {
					lt.dirty[from] = true
					pending++
				}
			}
		}
	}

	// Top levels: the direct successors of x seed the descendant cone
	// (their recurrence reads cost[x]); x's own top level is unaffected.
	pending = 0
	first := len(lt.byPos)
	for k := lt.outStart[x]; k < lt.outStart[x+1]; k++ {
		if to := lt.outTo[k]; !lt.dirty[to] {
			lt.dirty[to] = true
			pending++
			if lt.pos[to] < first {
				first = lt.pos[to]
			}
		}
	}
	for i := first; i < len(lt.byPos) && pending > 0; i++ {
		t := lt.byPos[i]
		if !lt.dirty[t] {
			continue
		}
		lt.dirty[t] = false
		pending--
		if nt := lt.recomputeTop(t); nt != lt.tl[t] {
			lt.tl[t] = nt
			lt.changed = append(lt.changed, t)
			for k := lt.outStart[t]; k < lt.outStart[t+1]; k++ {
				if to := lt.outTo[k]; !lt.dirty[to] {
					lt.dirty[to] = true
					pending++
				}
			}
		}
	}
	return lt.changed
}

// BottomLevel returns the current bottom level of task t.
func (lt *LevelTracker) BottomLevel(t int) float64 { return lt.bl[t] }

// TopLevel returns the current top level of task t.
func (lt *LevelTracker) TopLevel(t int) float64 { return lt.tl[t] }
