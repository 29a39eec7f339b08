package flownet

import "math"

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
	weight  int32   // live member count
	rate    float64 // current per-member rate
	heap    []int32 // member ids, min-heap by (finish, seq)
	gen     uint32  // bumped on destroy; stale log entries detect reuse
	pos     int32   // index in Net.active
	agg     bool    // registered in byRoute
	exempt  bool    // no links: rate is cap (or +Inf), never solved

	changed bool // population changed since the last solve
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

	// Completion-deadline index: a lazy min-heap of (absolute deadline,
	// entity, stamp). A deadline stays exact while the entity's rate and
	// head member are unchanged (draining is linear), so only entities
	// touched by a solve or a completion re-enter the heap; stale entries
	// are recognized by their stamp and dropped lazily. The exact eager
	// drained-state test stays authoritative — the heap only selects
	// which entities PopDrained examines.
	dlHeap  []dlKey
	dlStamp []uint32 // by entity id: bumped on every deadline-relevant change

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
	genByID        []uint32 // by entity id: mirror of entity.gen for the log streams
	fixedLevel     []int32  // by entity id: index of the entity's fix in the level log
	solveEp        []uint32 // by entity id: == epoch when in the unfixed set
	fixedEp        []uint32 // by entity id: == epoch when fixed this solve
	walkEp         []uint32 // by entity id: == epoch when recommitted by the merge replay
	epoch          uint32
	unfixed        int
	unfixedList    []int32
	rem            []float64
	wcnt           []int32
	share          []float64 // cached rem/wcnt per link, maintained by flushLevel
	wsum           []int32   // per-link weight accumulator of the level being applied
	touchedLn      []int32   // links with nonzero wsum, in first-touch order
	lnHeap         []lnKey   // lazy min-heap of active links by (share, id)
	lastLinkWeight []int32   // linkWeight as of the last Solve (checkpoint base)
	bnLevel        []int32   // level index where the link is the bottleneck
	ckRem          []float64
	ckWcnt         []int32
	oldLevels      []level    // merge-replay scratch: the old log suffix
	oldFixes       []fixEntry // merge-replay scratch: its fix entries
	nCk            int
	capHeap        []capKey // pending capped entities by (cap, id), lazily pruned
	levels         []level
	fixes          []fixEntry
	logOK          bool

	popped []int32

	// nolog suppresses the level/fix/checkpoint bookkeeping for the
	// duration of one small-population scratch solve (see solve.go).
	nolog bool

	fullSolves, incrSolves, scratchSolves int
	ckRestores, orphanLevels              int
}

// New creates a network over links with the given capacities (bytes/s).
func New(linkCaps []float64) *Net {
	n := &Net{
		caps:           append([]float64(nil), linkCaps...),
		linkWeight:     make([]int32, len(linkCaps)),
		lastLinkWeight: make([]int32, len(linkCaps)),
		bnLevel:        make([]int32, len(linkCaps)),
		livePos:        make([]int32, len(linkCaps)),
		linkEnts:       make([][]linkRef, len(linkCaps)),
		linkChanged:    make([]bool, len(linkCaps)),
		byRoute:        make(map[routeKey]int32),
		pendingCut:     noLevel,
	}
	for i := range n.bnLevel {
		n.bnLevel[i] = noLevel
		n.livePos[i] = -1
	}
	return n
}

// Flows returns the number of live flows (members, not entities).
func (n *Net) Flows() int { return n.nMembers }

// Entities returns the number of live solver entities (super-flows); the
// aggregation ratio Flows()/Entities() is what the route collapse buys.
func (n *Net) Entities() int { return len(n.active) }

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
	n.heapPush(e, mid)
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

// Remove deletes a live flow before completion.
func (n *Net) Remove(id int) {
	mid := int32(id)
	eid := n.members[mid].ent
	e := &n.ents[eid]
	for i, h := range e.heap {
		if h == mid {
			n.heapDelete(e, i)
			break
		}
	}
	n.dropMembers(eid, 1)
	if e.weight > 0 {
		n.bumpDeadline(eid, e)
	}
	n.freeMember(mid)
}

// Rate returns the flow's current per-member rate (valid after Solve).
func (n *Net) Rate(id int) float64 { return n.ents[n.members[id].ent].rate }

// Remaining returns the flow's residual volume in bytes.
func (n *Net) Remaining(id int) float64 {
	m := &n.members[id]
	e := &n.ents[m.ent]
	if int(e.pos) < len(n.active) && n.active[e.pos] == m.ent {
		return m.finish - n.drained[e.pos]
	}
	return m.finish // entity already destroyed: nothing drains anymore
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

// bumpDeadline invalidates an entity's deadline entry after a rate, head
// or membership change, inserting a fresh one while the entity drains.
func (n *Net) bumpDeadline(eid int32, e *entity) {
	n.dlStamp[eid]++
	if e.weight == 0 || e.rate <= 0 {
		return
	}
	hf := n.headFin[e.pos]
	if math.IsInf(hf, 1) {
		return
	}
	d := n.now + (hf-n.drained[e.pos])/e.rate
	n.dlPush(dlKey{t: d, eid: eid, stamp: n.dlStamp[eid]})
}

// NextDeadline returns the absolute time of the earliest flow completion
// after now, or +Inf when no flow is draining. Flows already due at now
// clamp the result to now — complete them with PopDrained; now must be
// consistent with the accumulated Advance time.
func (n *Net) NextDeadline(now float64) float64 {
	for len(n.dlHeap) > 0 {
		top := n.dlHeap[0]
		if n.dlStamp[top.eid] != top.stamp {
			n.dlPop()
			continue
		}
		if top.t < now {
			return now
		}
		return top.t
	}
	return math.Inf(1)
}

// PopDrained completes every flow that is drained at virtual time now: its
// residual volume is at most eps, or so small that draining it cannot
// advance the clock by one ULP (now + remaining/rate == now). Completed
// flows are yielded in arrival order and their ids recycled; yield must
// not call back into the Net. It reports whether any flow completed.
func (n *Net) PopDrained(now, eps float64, yield func(id int)) bool {
	n.popped = n.popped[:0]
	for len(n.dlHeap) > 0 {
		top := n.dlHeap[0]
		if n.dlStamp[top.eid] != top.stamp {
			n.dlPop()
			continue
		}
		if top.t > now {
			break
		}
		eid := top.eid
		e := &n.ents[eid]
		pos := int(e.pos)
		// Exact drained-state test on the candidate; the heap deadline is
		// only a hint and may run an ULP early.
		rem := n.headFin[pos] - n.drained[pos]
		if !(rem <= eps || (e.rate > 0 && now+rem/e.rate <= now)) {
			n.dlPop()
			n.dlPush(dlKey{t: now + rem/e.rate, eid: eid, stamp: top.stamp})
			continue
		}
		popCount := int32(0)
		for len(e.heap) > 0 {
			head := e.heap[0]
			hrem := n.members[head].finish - n.drained[pos]
			if hrem <= eps || (e.rate > 0 && now+hrem/e.rate <= now) {
				n.heapPop(e)
				n.popped = append(n.popped, head)
				popCount++
				continue
			}
			break
		}
		if popCount == 0 {
			// The head moved without completing (defensive).
			n.dlPop()
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
		n.dlStamp = append(n.dlStamp, 0)
		eid = int32(len(n.ents) - 1)
	}
	e := &n.ents[eid]
	e.links = e.links[:0]
	e.linkPos = e.linkPos[:0]
	e.cap = rateCap
	e.weight = 0
	e.heap = e.heap[:0]
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
	n.dlStamp[eid]++
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

// Member heap by (finish, seq): completions within an entity in virtual
// finish-volume order, FIFO on exact ties. Manual sift code keeps the hot
// path free of interface allocations. Every mutation refreshes the dense
// headFin mirror.

func (n *Net) memLess(a, b int32) bool {
	ma, mb := &n.members[a], &n.members[b]
	if ma.finish != mb.finish {
		return ma.finish < mb.finish
	}
	return ma.seq < mb.seq
}

func (n *Net) syncHeadFin(e *entity) {
	if len(e.heap) > 0 {
		n.headFin[e.pos] = n.members[e.heap[0]].finish
	} else {
		n.headFin[e.pos] = math.Inf(1)
	}
}

func (n *Net) heapPush(e *entity, mid int32) {
	e.heap = append(e.heap, mid)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !n.memLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
	n.syncHeadFin(e)
}

func (n *Net) heapPop(e *entity) int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		n.siftDown(e, 0)
	}
	n.syncHeadFin(e)
	return top
}

func (n *Net) heapDelete(e *entity, i int) {
	last := len(e.heap) - 1
	e.heap[i] = e.heap[last]
	e.heap = e.heap[:last]
	if i < last {
		n.siftDown(e, i)
		n.siftUp(e, i)
	}
	n.syncHeadFin(e)
}

func (n *Net) siftDown(e *entity, i int) {
	h := e.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && n.memLess(h[r], h[c]) {
			c = r
		}
		if !n.memLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (n *Net) siftUp(e *entity, i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !n.memLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// dlKey is one deadline-heap entry.
type dlKey struct {
	t     float64
	eid   int32
	stamp uint32
}

func (n *Net) dlPush(k dlKey) {
	// Bound the garbage from superseded entries: rebuild once the heap
	// outgrows the live population by enough to matter.
	if len(n.dlHeap) > 4*len(n.active)+64 {
		w := 0
		for _, e := range n.dlHeap {
			if n.dlStamp[e.eid] == e.stamp {
				n.dlHeap[w] = e
				w++
			}
		}
		n.dlHeap = n.dlHeap[:w]
		for i := len(n.dlHeap)/2 - 1; i >= 0; i-- {
			n.dlSiftDown(i)
		}
	}
	n.dlHeap = append(n.dlHeap, k)
	i := len(n.dlHeap) - 1
	h := n.dlHeap
	for i > 0 {
		p := (i - 1) / 2
		if !dlLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (n *Net) dlPop() {
	last := len(n.dlHeap) - 1
	n.dlHeap[0] = n.dlHeap[last]
	n.dlHeap = n.dlHeap[:last]
	if last > 0 {
		n.dlSiftDown(0)
	}
}

// dlLess orders deadline entries by time with (entity, stamp) tie-breaks
// for determinism.
func dlLess(a, b dlKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.eid != b.eid {
		return a.eid < b.eid
	}
	return a.stamp < b.stamp
}

func (n *Net) dlSiftDown(i int) {
	h := n.dlHeap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && dlLess(h[r], h[c]) {
			c = r
		}
		if !dlLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
