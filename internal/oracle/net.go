package oracle

import (
	"math"

	"repro/internal/obs"
)

// MaxMinNet is the reference fluid network: one allocated record per flow,
// max-min rates re-solved from scratch by MaxMin on every population
// change. It has *flownet.Net's method set, so simdag.ExecuteOn replays
// schedules on it: the reference the incremental flownet solver is
// verified against.
type MaxMinNet struct {
	linkCaps []float64
	flows    []*mmFlow // live flows in arrival order
	freeIDs  []int     // recycled flow ids
	nextID   int
	stale    bool // flow set changed; rates must be recomputed
	solves   uint64

	// Scratch buffers reused across rate recomputations.
	solver     MaxMinSolver
	scratchLnk [][]int
	scratchCap []float64
	drained    []int // ids completed by the current PopDrained call
}

type mmFlow struct {
	id        int
	links     []int
	rateCap   float64
	remaining float64
	rate      float64
}

// NewMaxMinNet creates a reference network over links with the given
// capacities (bytes/s).
func NewMaxMinNet(linkCaps []float64) *MaxMinNet {
	return &MaxMinNet{linkCaps: linkCaps}
}

// Start adds a flow of volume bytes over links, with rateCap bounding its
// rate if positive, and returns its id. Ids of completed flows are reused.
func (n *MaxMinNet) Start(links []int, rateCap, volume float64) int {
	id := n.nextID
	if k := len(n.freeIDs); k > 0 {
		id = n.freeIDs[k-1]
		n.freeIDs = n.freeIDs[:k-1]
	} else {
		n.nextID++
	}
	n.flows = append(n.flows, &mmFlow{id: id, links: links, rateCap: rateCap, remaining: volume})
	n.stale = true
	return id
}

// Flows returns the number of live flows.
func (n *MaxMinNet) Flows() int { return len(n.flows) }

// Dirty reports whether the flow set changed since the last Solve.
func (n *MaxMinNet) Dirty() bool { return n.stale }

// Solve re-solves the max-min rate allocation from scratch.
func (n *MaxMinNet) Solve() {
	n.solves++
	k := len(n.flows)
	if cap(n.scratchLnk) < k {
		n.scratchLnk = make([][]int, k)
		n.scratchCap = make([]float64, k)
	}
	flowLinks := n.scratchLnk[:k]
	flowCaps := n.scratchCap[:k]
	for i, f := range n.flows {
		flowLinks[i] = f.links
		flowCaps[i] = f.rateCap
	}
	rates := n.solver.Solve(n.linkCaps, flowLinks, flowCaps)
	// Release the link-slice references once solved: as the flow population
	// shrinks, slots past the next k would otherwise pin completed flows'
	// link slices for the rest of a long simulation.
	for i := range flowLinks {
		flowLinks[i] = nil
	}
	for i, f := range n.flows {
		f.rate = rates[i]
	}
	n.stale = false
}

// ScratchLinks returns the full capacity of Solve's link-slice scratch, so
// a test can check that no completed flow's route stays referenced.
func (n *MaxMinNet) ScratchLinks() [][]int { return n.scratchLnk[:cap(n.scratchLnk)] }

// PopDrained removes every flow drained at time now — residue at most eps,
// or too small to advance the clock by one ULP — and then yields their ids
// in arrival order. It reports whether any flow completed.
func (n *MaxMinNet) PopDrained(now, eps float64, yield func(id int)) bool {
	kept := n.flows[:0]
	n.drained = n.drained[:0]
	for _, f := range n.flows {
		if f.remaining <= eps || (f.rate > 0 && now+f.remaining/f.rate <= now) {
			n.drained = append(n.drained, f.id)
		} else {
			kept = append(kept, f)
		}
	}
	if len(n.drained) == 0 {
		return false
	}
	clear(n.flows[len(kept):]) // drop the completed flows' records
	n.flows = kept
	n.stale = true
	n.freeIDs = append(n.freeIDs, n.drained...)
	for _, id := range n.drained {
		yield(id)
	}
	return true
}

// NextDeadline returns the absolute time of the earliest flow completion
// after now (+Inf when no flow is draining).
func (n *MaxMinNet) NextDeadline(now float64) float64 {
	t := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if tt := now + f.remaining/f.rate; tt < t {
			t = tt
		}
	}
	return t
}

// Advance drains every flow at its current rate for dt seconds.
func (n *MaxMinNet) Advance(dt float64) {
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// AddCounters adds the network's solve count into c: every recompute is a
// full solve.
func (n *MaxMinNet) AddCounters(c *obs.Counters) { c.SolvesFull += n.solves }
