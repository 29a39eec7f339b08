package oracle

import "repro/internal/dag"

// Critical-path walks the allocation, generator and graph tests measure
// against. The production allocators track the critical path
// incrementally (dag.LevelTracker) and never materialize it.

// TopLevels computes, for every task, the length of the longest path from
// the entry up to (but excluding) the task itself: the from-scratch pass
// dag.LevelTracker's top levels are checked against. Returns nil on a
// cyclic graph.
func TopLevels(g *dag.Graph, cost dag.CostFunc, edgeCost dag.EdgeCostFunc) []float64 {
	order, ok := g.TopoOrder()
	if !ok {
		return nil
	}
	tl := make([]float64, g.N())
	for _, t := range order {
		for _, e := range g.In(t) {
			from := g.Edges[e].From
			v := tl[from] + cost(from) + edgeCost(e)
			if v > tl[t] {
				tl[t] = v
			}
		}
	}
	return tl
}

// CriticalPathLength returns C∞, the length of the critical path: the
// maximum over tasks of bottom level, which for a single-entry DAG is the
// bottom level of the entry.
func CriticalPathLength(g *dag.Graph, cost dag.CostFunc, edgeCost dag.EdgeCostFunc) float64 {
	bl := g.BottomLevelsInto(nil, cost, edgeCost)
	best := 0.0
	for _, v := range bl {
		if v > best {
			best = v
		}
	}
	return best
}

// CriticalPath returns one critical path as a sequence of task IDs from the
// entry to the exit, following at each step the successor that preserves
// the bottom-level recurrence. The boolean slice marks every task that lies
// on *some* critical path (within a relative tolerance), which is what the
// CPA allocation loop iterates over; the tests check the allocators'
// stopping rule against it.
func CriticalPath(g *dag.Graph, cost dag.CostFunc, edgeCost dag.EdgeCostFunc) (path []int, onCP []bool) {
	bl := g.BottomLevelsInto(nil, cost, edgeCost)
	tl := TopLevels(g, cost, edgeCost)
	if bl == nil {
		return nil, nil
	}
	cp := 0.0
	var start int
	for t, v := range bl {
		if v > cp {
			cp = v
			start = t
		}
	}
	const rel = 1e-9
	tol := cp * rel
	onCP = make([]bool, g.N())
	for t := range onCP {
		// t is on a critical path iff tl(t) + bl(t) == C∞.
		if tl[t]+bl[t] >= cp-tol {
			onCP[t] = true
		}
	}
	// Walk one path greedily.
	t := start
	path = append(path, t)
	for len(g.Out(t)) > 0 {
		next := -1
		for _, e := range g.Out(t) {
			to := g.Edges[e].To
			if edgeCost(e)+bl[to] >= bl[t]-cost(t)-tol {
				next = to
				break
			}
		}
		if next < 0 {
			break
		}
		t = next
		path = append(path, t)
	}
	return path, onCP
}
