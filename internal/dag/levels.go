package dag

// CostFunc gives the (current) execution time of a task, in seconds. The
// allocation procedures re-evaluate it as allocations evolve.
type CostFunc func(task int) float64

// EdgeCostFunc gives the estimated communication time of an edge, in
// seconds. Allocation-time estimates are contention-free.
type EdgeCostFunc func(edge int) float64

// BottomLevels computes, for every task, the length of the longest path
// from that task to the exit, *including* the task's own execution time and
// the edge costs along the path. This is the classic "bottom level" (or
// "blevel") priority used by CPA, HCPA and RATS: the farther a task is from
// the end of the application, the more critical it is.
func (g *Graph) BottomLevels(cost CostFunc, edgeCost EdgeCostFunc) []float64 {
	return g.BottomLevelsInto(nil, cost, edgeCost)
}

// BottomLevelsInto is BottomLevels writing into bl, which is grown when too
// small (pass nil to allocate). Every entry is overwritten; callers reusing
// a buffer across graphs need no clearing. Returns nil on a cyclic graph.
func (g *Graph) BottomLevelsInto(bl []float64, cost CostFunc, edgeCost EdgeCostFunc) []float64 {
	order, ok := g.TopoOrder()
	if !ok {
		return nil
	}
	if cap(bl) < g.N() {
		bl = make([]float64, g.N())
	}
	bl = bl[:g.N()]
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, e := range g.out[t] {
			v := edgeCost(e) + bl[g.Edges[e].To]
			if v > best {
				best = v
			}
		}
		bl[t] = cost(t) + best
	}
	return bl
}

// TopLevels computes, for every task, the length of the longest path from
// the entry up to (but excluding) the task itself.
func (g *Graph) TopLevels(cost CostFunc, edgeCost EdgeCostFunc) []float64 {
	order, ok := g.TopoOrder()
	if !ok {
		return nil
	}
	tl := make([]float64, g.N())
	for _, t := range order {
		for _, e := range g.in[t] {
			from := g.Edges[e].From
			v := tl[from] + cost(from) + edgeCost(e)
			if v > tl[t] {
				tl[t] = v
			}
		}
	}
	return tl
}
