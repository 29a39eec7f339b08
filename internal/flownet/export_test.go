package flownet

// CapLevels counts the rate-cap levels in the current level log.
func CapLevels(n *Net) int {
	c := 0
	for _, lv := range n.levels {
		if lv.link < 0 {
			c++
		}
	}
	return c
}

// Entities returns the number of live solver entities (super-flows); the
// aggregation ratio Flows()/Entities() is what the route collapse buys.
func (n *Net) Entities() int { return len(n.active) }

// Rate returns the flow's current per-member rate (valid after Solve).
func (n *Net) Rate(id int) float64 { return n.ents[n.members[id].ent].rate }

// Remove deletes a live flow before completion. The replay engine only
// ever lets flows drain; the tests use it to drive population shrinkage.
func (n *Net) Remove(id int) {
	mid := int32(id)
	eid := n.members[mid].ent
	e := &n.ents[eid]
	for i := 0; i < e.heap.Len(); i++ {
		if e.heap.At(i).ID == int64(mid) {
			e.heap.Remove(i)
			n.syncHeadFin(e)
			break
		}
	}
	n.dropMembers(eid, 1)
	if e.weight > 0 {
		n.bumpDeadline(eid, e)
	}
	n.freeMember(mid)
}

// Remaining returns the flow's residual volume in bytes.
func (n *Net) Remaining(id int) float64 {
	m := &n.members[id]
	e := &n.ents[m.ent]
	if int(e.pos) < len(n.active) && n.active[e.pos] == m.ent {
		return m.finish - n.drained[e.pos]
	}
	return m.finish // entity already destroyed: nothing drains anymore
}

// FullSolves, IncrementalSolves and ScratchSolves report how often Solve
// re-solved from scratch above the scratch threshold, repaired the level
// log, or re-solved a population at or below the threshold from scratch.
func (n *Net) FullSolves() int        { return n.fullSolves }
func (n *Net) IncrementalSolves() int { return n.incrSolves }
func (n *Net) ScratchSolves() int     { return n.scratchSolves }
