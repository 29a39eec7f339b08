package dag

// VisitAncestors calls fn for every proper ancestor of task t (tasks from
// which t is reachable), in decreasing topological position. This is the
// cone a bottom-level change at t can propagate through.
func (g *Graph) VisitAncestors(t int, fn func(task int)) {
	order, ok := g.TopoOrder()
	if !ok {
		return
	}
	mark := make([]bool, g.N())
	mark[t] = true
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if !mark[u] {
			continue
		}
		if u != t {
			fn(u)
		}
		for _, e := range g.in[u] {
			mark[g.Edges[e].From] = true
		}
	}
}

// VisitDescendants calls fn for every proper descendant of task t (tasks
// reachable from t), in increasing topological position. This is the cone
// a top-level change at t can propagate through.
func (g *Graph) VisitDescendants(t int, fn func(task int)) {
	order, ok := g.TopoOrder()
	if !ok {
		return
	}
	mark := make([]bool, g.N())
	mark[t] = true
	for _, u := range order {
		if !mark[u] {
			continue
		}
		if u != t {
			fn(u)
		}
		for _, e := range g.out[u] {
			mark[g.Edges[e].To] = true
		}
	}
}
