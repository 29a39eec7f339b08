package flownet

import (
	"math"

	"repro/internal/heapq"
)

// maxAggRoute is the longest route eligible for super-flow aggregation.
// Platform routes have two links (intra-cabinet) or four (cross-cabinet);
// longer routes are legal but each gets a private entity.
const maxAggRoute = 4

// routeKey identifies an aggregation class: an exact link sequence plus
// the per-flow rate cap.
type routeKey struct {
	links [maxAggRoute]int32
	n     int8
	cap   float64
}

// linkRef is one occurrence of an entity on a link's incidence list. occ
// indexes the entity's links slice, so routes visiting a link twice stay
// consistent under swap-removal.
type linkRef struct {
	ent int32
	occ int32
}

// member is one live flow inside an entity. finish is the member's virtual
// finish volume: its transfer volume plus the entity's drained accumulator
// at join time. remaining(t) = finish − entity drained(t), so the key is
// static and orders completions within the entity for the member's whole
// life.
type member struct {
	ent    int32
	seq    int64
	finish float64
}

// entity is a weighted super-flow: weight members sharing one route, one
// rate cap and therefore one max-min rate. The drained accumulator lives
// in Net.drained[pos] (dense by active position, for the per-event scans).
type entity struct {
	links   []int32 // route (dense link ids, repeats allowed)
	linkPos []int32 // position of occurrence i in Net.linkEnts[links[i]]
	cap     float64 // per-member rate cap (<= 0: none)
	rate    float64 // current per-member rate
	weight  int32   // live member count
	gen     uint32  // bumped on destroy; stale log entries detect reuse
	pos     int32   // index in Net.active
	agg     bool    // registered in byRoute
	exempt  bool    // no links: rate is cap (or +Inf), never solved

	// capBinds: the cap is below every link capacity of the route, so it
	// can fire before the route's narrowest link; only such entities
	// enter the pending-cap heap (see queuePending).
	capBinds bool

	changed bool // population changed since the last solve

	// heap holds the live members keyed (finish, member id). Members
	// with equal finish volumes complete in the same PopDrained batch,
	// which yields them in arrival order, so the id tie-break is never
	// observed.
	heap heapq.Heap[struct{}]
}

// Net maintains the flow population, the rate allocation and the fluid
// volumes. The zero value is not usable; create Nets with New.
type Net struct {
	caps       []float64
	linkWeight []int32 // Σ weight of live entities per link occurrence
	linkEnts   [][]linkRef

	// Links with live weight, swap-maintained: every per-solve pass over
	// link state (checkpoint restore, fill's heap build) walks this list
	// instead of the full link vector, so sparse populations pay for the
	// links they use, not for the cluster size.
	liveLinks []int32
	livePos   []int32 // by link: index in liveLinks, -1 when inactive

	ents    []entity
	entFree []int32
	byRoute map[routeKey]int32

	members  []member
	memFree  []int32
	nMembers int

	active   []int32 // live entity ids (swap-removed; order deterministic)
	solvable int     // live non-exempt entities

	// Dense per-entity state, parallel to active (swap-removed in sync).
	drained []float64 // bytes drained per member since entity (re)creation
	rates   []float64 // mirror of entity.rate
	headFin []float64 // finish volume of the entity's earliest member (+Inf when empty)

	// Completion-deadline index: a binary min-heap of (absolute deadline,
	// entity) holding exactly one entry per draining entity (live, weight
	// > 0, rate > 0, finite head), indexed by position. A deadline stays
	// exact while the entity's rate and head member are unchanged
	// (draining is linear), so only entities touched by a solve or a
	// completion are re-keyed, in place. The exact eager drained-state
	// test stays authoritative — the heap only selects which entities
	// PopDrained examines. Keyed (deadline, entity id), indexed by id.
	dl heapq.Heap[struct{}]

	seq   int64
	dirty bool
	now   float64 // internal clock: the sum of Advance dts

	// Change tracking since the last Solve.
	chLinks     []int32
	linkChanged []bool
	chEnts      []int32
	pendingCut  int32 // min level index invalidated by entity changes

	// Solver state and scratch (solve.go). The per-entity epoch stamps
	// live in dense by-id arrays (not the entity structs): the fill loop
	// walks capList and link incidence lists checking them, and the
	// compact layout keeps those scattered reads in cache.
	genByID     []uint32 // by entity id: mirror of entity.gen for the log streams
	fixedLevel  []int32  // by entity id: index of the entity's fix in the level log
	solveEp     []uint32 // by entity id: == epoch when in the unfixed set
	fixedEp     []uint32 // by entity id: == epoch when fixed this solve
	walkEp      []uint32 // by entity id: == epoch when recommitted by the merge replay
	epoch       uint32
	unfixed     int
	unfixedList []int32
	rem         []float64
	wcnt        []int32
	wsum        []int32              // per-link weight accumulator of the level being applied
	touchedLn   []int32              // links with nonzero wsum, in first-touch order
	lnHeap      heapq.Heap[struct{}] // lazy min-heap of active links by (share, id); see minLink
	bnLevel     []int32              // level index where the link is the bottleneck
	ckRem       []float64
	ckUsed      []int32     // checkpointed consumed weight, linkWeight − wcnt (see snapshotCk)
	oldLevels   []level     // merge-replay scratch: the old log suffix
	oldFixes    []fixEntry  // merge-replay scratch: its fix entries
	oldDeltas   []linkDelta // merge-replay scratch: its link deltas
	nCk         int
	capHeap     heapq.Heap[struct{}] // pending capped entities by (cap, id), lazily pruned
	levels      []level
	fixes       []fixEntry
	deltas      []linkDelta // per-level link flushes, parallel to fixes
	logOK       bool

	popped []int32

	fullSolves, incrSolves, scratchSolves             int
	ckRestores, orphanLevels                          int
	levelsReplayed, levelsRecommitted, levelsInserted int
}

// New creates a network over links with the given capacities (bytes/s).
func New(linkCaps []float64) *Net {
	n := &Net{
		caps:        append([]float64(nil), linkCaps...),
		linkWeight:  make([]int32, len(linkCaps)),
		bnLevel:     make([]int32, len(linkCaps)),
		livePos:     make([]int32, len(linkCaps)),
		linkEnts:    make([][]linkRef, len(linkCaps)),
		linkChanged: make([]bool, len(linkCaps)),
		byRoute:     make(map[routeKey]int32),
		pendingCut:  noLevel,
	}
	for i := range n.bnLevel {
		n.bnLevel[i] = noLevel
		n.livePos[i] = -1
	}
	n.dl.IndexByID()
	return n
}

// Flows returns the number of live flows (members, not entities).
func (n *Net) Flows() int { return n.nMembers }

// Dirty reports whether the population changed since the last Solve.
func (n *Net) Dirty() bool { return n.dirty }

// Start adds a flow of volume bytes over the given route. rateCap, if
// positive, bounds the flow's rate (the empirical bandwidth β'). A flow
// with an empty route runs at rateCap (or unboundedly, +Inf, without one).
// The returned id is valid until the flow completes or is removed.
func (n *Net) Start(links []int, rateCap, volume float64) int {
	eid := n.entityFor(links, rateCap)
	mid := n.allocMember()
	e := &n.ents[eid]
	m := &n.members[mid]
	m.ent = eid
	m.seq = n.seq
	n.seq++
	m.finish = volume + n.drained[e.pos]
	e.heap.Push(m.finish, int64(mid), struct{}{})
	n.syncHeadFin(e)
	e.weight++
	for _, l := range e.links {
		if n.linkWeight[l]++; n.linkWeight[l] == 1 && n.livePos[l] < 0 {
			n.livePos[l] = int32(len(n.liveLinks))
			n.liveLinks = append(n.liveLinks, l)
		}
	}
	n.nMembers++
	n.touchEntity(eid)
	n.bumpDeadline(eid, e)
	n.dirty = true
	return int(mid)
}

// Advance drains every flow by rate·dt bytes of virtual time dt and moves
// the network's clock, which the deadline index is anchored to: the now
// arguments of NextDeadline and PopDrained must stay consistent with the
// accumulated Advance time.
func (n *Net) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	n.now += dt
	rates, drained := n.rates, n.drained
	for i := range rates {
		if rates[i] > 0 {
			drained[i] += rates[i] * dt
		}
	}
}

// bumpDeadline re-keys an entity's deadline entry after a rate, head or
// membership change, removing it when the entity stops draining.
func (n *Net) bumpDeadline(eid int32, e *entity) {
	hf := n.headFin[e.pos]
	if e.weight == 0 || e.rate <= 0 || math.IsInf(hf, 1) {
		n.dlRemove(eid)
		return
	}
	n.dlSet(eid, n.now+(hf-n.drained[e.pos])/e.rate)
}

// NextDeadline returns the absolute time of the earliest flow completion
// after now, or +Inf when no flow is draining. Flows already due at now
// clamp the result to now — complete them with PopDrained; now must be
// consistent with the accumulated Advance time.
func (n *Net) NextDeadline(now float64) float64 {
	if n.dl.Len() == 0 {
		return math.Inf(1)
	}
	if t := n.dl.At(0).K; !(t < now) {
		return t
	}
	return now
}

// PopDrained completes every flow that is drained at virtual time now: its
// residual volume is at most eps, or so small that draining it cannot
// advance the clock by one ULP (now + remaining/rate == now). Completed
// flows are yielded in arrival order and their ids recycled; yield must
// not call back into the Net. It reports whether any flow completed.
func (n *Net) PopDrained(now, eps float64, yield func(id int)) bool {
	n.popped = n.popped[:0]
	for n.dl.Len() > 0 && !(n.dl.At(0).K > now) {
		eid := int32(n.dl.At(0).ID)
		e := &n.ents[eid]
		pos := int(e.pos)
		// Exact drained-state test on the candidate; the heap deadline is
		// only a hint and may run an ULP early.
		rem := n.headFin[pos] - n.drained[pos]
		if !(rem <= eps || (e.rate > 0 && now+rem/e.rate <= now)) {
			n.dlSet(eid, now+rem/e.rate)
			continue
		}
		popCount := int32(0)
		for e.heap.Len() > 0 {
			hrem := e.heap.At(0).K - n.drained[pos]
			if hrem <= eps || (e.rate > 0 && now+hrem/e.rate <= now) {
				n.popped = append(n.popped, int32(e.heap.Pop().ID))
				popCount++
				continue
			}
			break
		}
		n.syncHeadFin(e)
		if popCount == 0 {
			// The head moved without completing (defensive).
			n.dlRemove(eid)
			continue
		}
		n.dropMembers(eid, popCount)
		if e.weight > 0 {
			n.bumpDeadline(eid, e)
		}
	}
	if len(n.popped) == 0 {
		return false
	}
	// Arrival order across entities (per-entity pops are already ordered).
	// Insertion sort: completion batches are small, and this stays
	// allocation-free on the per-event path.
	for i := 1; i < len(n.popped); i++ {
		for j := i; j > 0 && n.members[n.popped[j]].seq < n.members[n.popped[j-1]].seq; j-- {
			n.popped[j], n.popped[j-1] = n.popped[j-1], n.popped[j]
		}
	}
	for _, mid := range n.popped {
		yield(int(mid))
		n.freeMember(mid)
	}
	return true
}

// dropMembers unregisters k already-unheaped members from entity eid,
// destroying the entity when it empties. Member slots are freed by the
// caller (PopDrained defers until after the yields).
func (n *Net) dropMembers(eid, k int32) {
	e := &n.ents[eid]
	e.weight -= k
	for _, l := range e.links {
		if n.linkWeight[l] -= k; n.linkWeight[l] == 0 {
			if p := n.livePos[l]; p >= 0 {
				last := int32(len(n.liveLinks) - 1)
				moved := n.liveLinks[last]
				n.liveLinks[p] = moved
				n.livePos[moved] = p
				n.liveLinks = n.liveLinks[:last]
				n.livePos[l] = -1
			}
		}
	}
	n.nMembers -= int(k)
	n.touchEntity(eid)
	n.dirty = true
	if e.weight == 0 {
		n.destroyEntity(eid)
	}
}

// touchEntity marks the entity and its links changed for the incremental
// solver, invalidating the level log from the entity's own fix onward.
func (n *Net) touchEntity(eid int32) {
	e := &n.ents[eid]
	if !e.changed {
		e.changed = true
		n.chEnts = append(n.chEnts, eid)
		if fl := n.fixedLevel[eid]; fl < n.pendingCut {
			n.pendingCut = fl
		}
	}
	for _, l := range e.links {
		if !n.linkChanged[l] {
			n.linkChanged[l] = true
			n.chLinks = append(n.chLinks, l)
		}
	}
}

// entityFor returns the entity aggregating the given route and cap,
// creating it if needed. Routes longer than maxAggRoute get private
// entities.
func (n *Net) entityFor(links []int, rateCap float64) int32 {
	if len(links) <= maxAggRoute {
		var key routeKey
		key.n = int8(len(links))
		key.cap = rateCap
		for i, l := range links {
			key.links[i] = int32(l)
		}
		if eid, ok := n.byRoute[key]; ok {
			return eid
		}
		eid := n.newEntity(links, rateCap, true)
		n.byRoute[key] = eid
		return eid
	}
	return n.newEntity(links, rateCap, false)
}

func (n *Net) newEntity(links []int, rateCap float64, agg bool) int32 {
	var eid int32
	if k := len(n.entFree); k > 0 {
		eid = n.entFree[k-1]
		n.entFree = n.entFree[:k-1]
	} else {
		n.ents = append(n.ents, entity{})
		n.solveEp = append(n.solveEp, 0)
		n.fixedEp = append(n.fixedEp, 0)
		n.walkEp = append(n.walkEp, 0)
		n.genByID = append(n.genByID, 0)
		n.fixedLevel = append(n.fixedLevel, 0)
		eid = int32(len(n.ents) - 1)
	}
	e := &n.ents[eid]
	e.links = e.links[:0]
	e.linkPos = e.linkPos[:0]
	e.cap = rateCap
	e.capBinds = rateCap > 0
	e.weight = 0
	e.heap.Reset()
	e.agg = agg
	e.changed = false
	n.solveEp[eid] = 0
	n.fixedEp[eid] = 0
	n.walkEp[eid] = 0
	n.fixedLevel[eid] = noLevel
	e.exempt = len(links) == 0
	switch {
	case !e.exempt:
		e.rate = 0
		n.solvable++
	case rateCap > 0:
		e.rate = rateCap
	default:
		e.rate = math.Inf(1)
	}
	for i, l := range links {
		l32 := int32(l)
		if !(rateCap < n.caps[l]) {
			e.capBinds = false
		}
		e.links = append(e.links, l32)
		e.linkPos = append(e.linkPos, int32(len(n.linkEnts[l])))
		n.linkEnts[l] = append(n.linkEnts[l], linkRef{ent: eid, occ: int32(i)})
	}
	e.pos = int32(len(n.active))
	n.active = append(n.active, eid)
	n.drained = append(n.drained, 0)
	n.rates = append(n.rates, e.rate)
	n.headFin = append(n.headFin, math.Inf(1))
	return eid
}

func (n *Net) destroyEntity(eid int32) {
	e := &n.ents[eid]
	if e.agg {
		var key routeKey
		key.n = int8(len(e.links))
		key.cap = e.cap
		copy(key.links[:], e.links)
		delete(n.byRoute, key)
	}
	for i := 0; i < len(e.links); i++ {
		l, pos := e.links[i], e.linkPos[i]
		list := n.linkEnts[l]
		last := len(list) - 1
		ref := list[last]
		list[pos] = ref
		n.linkEnts[l] = list[:last]
		n.ents[ref.ent].linkPos[ref.occ] = pos
	}
	last := int32(len(n.active) - 1)
	moved := n.active[last]
	n.active[e.pos] = moved
	n.ents[moved].pos = e.pos
	n.drained[e.pos] = n.drained[last]
	n.rates[e.pos] = n.rates[last]
	n.headFin[e.pos] = n.headFin[last]
	n.active = n.active[:last]
	n.drained = n.drained[:last]
	n.rates = n.rates[:last]
	n.headFin = n.headFin[:last]
	if !e.exempt {
		n.solvable--
	}
	e.gen++
	n.genByID[eid] = e.gen
	n.dlRemove(eid)
	n.entFree = append(n.entFree, eid)
}

func (n *Net) allocMember() int32 {
	if k := len(n.memFree); k > 0 {
		mid := n.memFree[k-1]
		n.memFree = n.memFree[:k-1]
		return mid
	}
	n.members = append(n.members, member{})
	return int32(len(n.members) - 1)
}

func (n *Net) freeMember(mid int32) {
	n.memFree = append(n.memFree, mid)
}

// syncHeadFin refreshes the dense mirror of the entity's earliest member
// finish volume after its member heap changed.
func (n *Net) syncHeadFin(e *entity) {
	if e.heap.Len() > 0 {
		n.headFin[e.pos] = e.heap.At(0).K
	} else {
		n.headFin[e.pos] = math.Inf(1)
	}
}

// dlSet inserts or re-keys entity eid's deadline entry.
func (n *Net) dlSet(eid int32, t float64) {
	if i := n.dl.Slot(int64(eid)); i >= 0 {
		n.dl.Fix(i, t)
	} else {
		n.dl.Push(t, int64(eid), struct{}{})
	}
}

// dlRemove drops entity eid's deadline entry, if it has one.
func (n *Net) dlRemove(eid int32) {
	if i := n.dl.Slot(int64(eid)); i >= 0 {
		n.dl.Remove(i)
	}
}
