package flownet

import (
	"math"
	"sort"

	"repro/internal/obs"
)

// level is one progressive-filling event of the bottleneck log: either a
// saturated link (link >= 0) fixing the next nfix entities of the fix log
// at the fair share value, or a rate-cap freeze (link == -1) fixing one
// entity at its cap. Values are nondecreasing along the log — the merge
// replay and the fill both emit events in firing order — which is what
// lets Solve binary-search the log for the share-condition cut. The
// level's flush is logged too, as nd link deltas: replaying or
// recommitting the level applies them without walking its entries.
type level struct {
	link     int32
	nfix     int32
	fixStart int32 // index of the level's first entry in Net.fixes
	dStart   int32 // index of the level's first link delta in Net.deltas
	nd       int32
	value    float64
}

// linkDelta is one link's part of a level's flush: the total weight the
// level fixed across the link. A level's deltas are stored in the order
// flushLevel applied them.
type linkDelta struct {
	link int32
	w    int32
}

// fixEntry records one entity frozen by a level. gen detects entity-slot
// reuse across solves, which invalidates the entry. The entity's links
// and weight need no copy: the level's link deltas carry their flush.
type fixEntry struct {
	ent int32
	gen uint32
}

// ckStride is the checkpoint spacing: the solver snapshots the (rem,
// consumed weight) state every ckStride levels, so a later solve can
// restore the state at any cut point with one O(links) copy plus at most
// ckStride levels of delta replay instead of re-applying the whole prefix.
const ckStride = 32

// scratchThreshold is the population size at or below which Solve takes a
// full solve even when the log could be repaired, and leaves the log
// untrusted afterwards, so the next solve is full as well. For tiny
// populations (the irregular jump=2 scenario classes keep a handful of
// concurrent flows) progressive filling costs no more than the merge
// replay. Full and incremental solves compute the same max-min rates only
// up to floating-point rounding (the oracle suite pins them to 1e-9), so
// the threshold fixes the last digits of replayed makespans: with 0,
// TestReplayGolden's big512 digests move. 16 is measured: replaying the
// served paper-scale request pool, thresholds 32 and 64 were about 2% and
// 11% slower per replay, and at big scale the three tied.
const scratchThreshold = 16

const noLevel = math.MaxInt32

// Solve repairs the max-min rate allocation after population changes.
//
// Entities fixed in the still-valid part of the bottleneck level log keep
// their rates untouched; Solve merge-replays the log against the changed
// population (mergeReplay), re-running progressive filling only for the
// entities that actually diverged. See the package documentation for the
// validity rules and the full-solve fallback conditions.
func (n *Net) Solve() {
	if !n.dirty {
		return
	}
	n.dirty = false
	nl := len(n.caps)
	n.rem = resizeF(n.rem, nl)
	n.wcnt = resizeI32(n.wcnt, nl)
	if cap(n.wsum) < nl {
		n.wsum = make([]int32, nl)
	}
	n.wsum = n.wsum[:nl]
	n.epoch++
	n.unfixedList = n.unfixedList[:0]
	n.capHeap.Reset()

	// A small population, or a burst that changes most of the population
	// (a large redistribution fan-out arriving at once), makes log repair
	// pure overhead: nearly every level would be skipped or reinserted.
	// Solve from scratch and let progressive filling rebuild the log in
	// one pass. A small solve leaves the log untrusted, so the solve after
	// it is full too.
	small := n.solvable <= scratchThreshold
	full := small || !n.logOK || 2*len(n.chEnts) >= n.solvable
	n.logOK = !small // the walk or the fill may drop it again
	kept := 0        // levels an incremental solve carries over from the old log
	if full {
		// Full solve: no trusted log. Start from the raw capacities and
		// seed checkpoint 0 with the initial state.
		if small {
			n.scratchSolves++
		} else {
			n.fullSolves++
		}
		n.levels = n.levels[:0]
		n.fixes = n.fixes[:0]
		n.deltas = n.deltas[:0]
		copy(n.rem, n.caps)
		copy(n.wcnt, n.linkWeight)
		n.nCk = 1
		n.snapshotCk(0)
		for _, eid := range n.active {
			if e := &n.ents[eid]; !e.exempt {
				n.queuePending(eid, e)
			}
		}
	} else {
		n.incrSolves++
		// Queue the changed entities before the merge walk: events fired
		// during the walk must see them as pending population.
		for _, eid := range n.chEnts {
			e := &n.ents[eid]
			if e.weight > 0 && !e.exempt {
				n.queuePending(eid, e)
			}
		}
		kept = n.mergeReplay()
	}

	// Whatever the walk could not handle goes to progressive filling:
	// entities queued but not fired yet.
	n.unfixed = 0
	for _, eid := range n.unfixedList {
		if n.fixedEp[eid] != n.epoch {
			n.unfixed++
		}
	}
	n.fill()
	if !full {
		n.levelsInserted += len(n.levels) - kept
	}
	// Clear the change tracking.
	for _, l := range n.chLinks {
		n.linkChanged[l] = false
	}
	n.chLinks = n.chLinks[:0]
	for _, eid := range n.chEnts {
		n.ents[eid].changed = false
	}
	n.chEnts = n.chEnts[:0]
	n.pendingCut = noLevel
}

// AddCounters adds the solver's regime counts into c: full solves of
// populations above the scratch threshold, incremental level-log repairs
// and full solves of small populations; merge-replay solves that rewound
// to a stride checkpoint, and old levels orphaned because their recorded
// bottleneck share went stale during the merge walk; and the levels an
// incremental solve re-applied between the restored checkpoint and the
// cut, the clean old levels the merge walk carried over whole, and the
// levels it wrote fresh (inserted in place by the walk or appended by the
// fill after it).
func (n *Net) AddCounters(c *obs.Counters) {
	c.SolvesFull += uint64(n.fullSolves)
	c.SolvesIncremental += uint64(n.incrSolves)
	c.SolvesScratch += uint64(n.scratchSolves)
	c.CkRestores += uint64(n.ckRestores)
	c.OrphanLevels += uint64(n.orphanLevels)
	c.LevelsReplayed += uint64(n.levelsReplayed)
	c.LevelsRecommitted += uint64(n.levelsRecommitted)
	c.LevelsInserted += uint64(n.levelsInserted)
}

// queuePending moves a live non-exempt entity into the pending set: it
// must be (re)fixed this solve, by a merge-walk event or by the fill.
// Entities whose cap can bind also enter the pending-cap heap. A cap at or
// above the capacity of the route's narrowest link l never fires: while
// the entity is pending, l's fair share rem/wcnt is at most
// caps[l]/weight, at most the cap, and a cap event must be strictly below
// every link event.
func (n *Net) queuePending(eid int32, e *entity) {
	if n.solveEp[eid] == n.epoch {
		return
	}
	n.solveEp[eid] = n.epoch
	n.unfixedList = append(n.unfixedList, eid)
	if e.capBinds {
		n.capHeap.Push(e.cap, int64(eid), struct{}{})
	}
}

// peekCap returns the earliest pending rate-cap event, lazily discarding
// entities already refixed by link events.
func (n *Net) peekCap() (int32, float64) {
	for n.capHeap.Len() > 0 {
		top := n.capHeap.At(0)
		if eid := int32(top.ID); n.fixedEp[eid] != n.epoch {
			return eid, top.K
		}
		n.capHeap.Pop()
	}
	return -1, math.Inf(1)
}

// minLink returns the dirty or active link with the smallest fair share
// rem/wcnt and that share, or (-1, +Inf) when none is finite. The link
// heap is lazy: shares only grow while levels are committed (every fix
// runs at or below the current minimum), so a stale key is a valid lower
// bound. The top is re-keyed in place when its share moved and discarded
// when its link saturated. Links with infinite capacity never win the
// reference solver's strict minimum test.
func (n *Net) minLink() (int32, float64) {
	for n.lnHeap.Len() > 0 {
		top := n.lnHeap.At(0)
		l := int32(top.ID)
		if n.wcnt[l] == 0 {
			n.lnHeap.Pop()
			continue
		}
		cur := n.rem[l] / float64(n.wcnt[l])
		if cur != top.K {
			n.lnHeap.Fix(0, cur)
			continue
		}
		if math.IsInf(cur, 1) {
			break
		}
		return l, cur
	}
	return -1, math.Inf(1)
}

// pushLink adds link l to the link heap keyed by its current fair share.
func (n *Net) pushLink(l int32) {
	if n.wcnt[l] > 0 {
		n.lnHeap.Push(n.rem[l]/float64(n.wcnt[l]), int64(l), struct{}{})
	}
}

// mergeReplay rebuilds the level log against the changed population by
// merging two event streams in value order: the old log's levels and the
// pending events of the dirty population (changed links, changed
// entities, and everything orphaned along the way). It works in three
// zones:
//
//  1. Unchecked (below cutLow): provably untouched by any change — below
//     every changed entity's own fix (pendingCut), below every changed
//     link's bottleneck level, and valued strictly below the level-0
//     fair share of every changed link and every binding cap of a
//     changed entity (shares only grow as filling progresses, so the
//     level-0 share is a lower bound on the pending event). Restored
//     from the nearest checkpoint plus the stored link deltas of the
//     levels in between.
//
//  2. Merge walk: the old suffix is moved aside and replayed level by
//     level. While an old level fires before every pending dirty event,
//     it is either recommitted whole — its stored link deltas applied,
//     entities keep their rates — or, when its bottleneck link went
//     dirty (its recorded share is stale), skipped: its entities join
//     the pending set and their links the dirty set (a cap level whose
//     entity diverged is dropped). When a dirty event fires first,
//     a new level is inserted in place — the dirty link's fair share
//     freezing every still-unhandled entity crossing it, or a pending
//     entity's rate cap — and the links it drains become dirty in turn.
//     Dirty links live in a lazy min-heap keyed by (fair share, link
//     id); shares only grow during the replay (every committed level
//     runs at or below the pending minimum), so stale keys are valid
//     lower bounds.
//
//  3. Whatever remains pending after the old log is exhausted is left to
//     progressive filling, which appends to the rebuilt log.
//
// It returns the number of levels kept from the old log: the unchecked
// prefix plus the recommitted levels.
func (n *Net) mergeReplay() int {
	nl := len(n.caps)
	capPending := math.Inf(1)
	for _, eid := range n.chEnts {
		e := &n.ents[eid]
		if e.weight == 0 || e.exempt || !e.capBinds {
			continue
		}
		if e.cap < capPending {
			capPending = e.cap
		}
	}
	cutHard := len(n.levels)
	if int(n.pendingCut) < cutHard {
		cutHard = int(n.pendingCut)
	}
	minPend0 := capPending
	for _, l := range n.chLinks {
		if w := n.linkWeight[l]; w > 0 {
			if sh := n.caps[l] / float64(w); sh < minPend0 {
				minPend0 = sh
			}
		}
		// A changed link that saturated in the log bounds the unchecked
		// zone at its own bottleneck level: the recorded share is stale
		// there.
		if bn := int(n.bnLevel[l]); bn < cutHard && n.levels[bn].link == l {
			cutHard = bn
		}
	}
	cutLow := sort.Search(len(n.levels), func(i int) bool {
		return !(n.levels[i].value < minPend0)
	})
	if cutLow > cutHard {
		cutLow = cutHard
	}

	// Restore the nearest checkpoint at or below cutLow and replay the
	// remaining unchecked levels' stored link deltas. Checkpoints
	// above cutLow reflect the old population's trajectory and are
	// dropped; the walk re-snapshots as the rebuilt log passes the
	// stride boundaries.
	ck := cutLow / ckStride
	if ck >= n.nCk {
		ck = n.nCk - 1
	}
	n.ckRestores++
	ckR, ckU := n.ckRem[ck*nl:(ck+1)*nl], n.ckUsed[ck*nl:(ck+1)*nl]
	for _, l := range n.liveLinks {
		n.rem[l], n.wcnt[l] = ckR[l], n.linkWeight[l]-ckU[l]
	}
	for _, l := range n.chLinks {
		n.rem[l], n.wcnt[l] = ckR[l], n.linkWeight[l]-ckU[l]
	}
	for li := ck * ckStride; li < cutLow; li++ {
		lv := &n.levels[li]
		n.applyDeltas(n.deltas[lv.dStart:lv.dStart+lv.nd], lv.value)
	}
	n.levelsReplayed += cutLow - ck*ckStride
	if c := cutLow/ckStride + 1; c < n.nCk {
		n.nCk = c
	}

	// Move the old suffix aside; the walk rebuilds the log in place.
	cutFix, cutDelta := int32(len(n.fixes)), int32(len(n.deltas))
	if cutLow < len(n.levels) {
		cutFix, cutDelta = n.levels[cutLow].fixStart, n.levels[cutLow].dStart
	}
	n.oldLevels = append(n.oldLevels[:0], n.levels[cutLow:]...)
	n.oldFixes = append(n.oldFixes[:0], n.fixes[cutFix:]...)
	n.oldDeltas = append(n.oldDeltas[:0], n.deltas[cutDelta:]...)
	for i := range n.oldLevels {
		n.oldLevels[i].fixStart -= cutFix
		n.oldLevels[i].dStart -= cutDelta
	}
	n.levels = n.levels[:cutLow]
	n.fixes = n.fixes[:cutFix]
	n.deltas = n.deltas[:cutDelta]
	cutLow32 := int32(cutLow)
	kept := cutLow

	// Dirty-link heap over the changed links with live weight.
	n.lnHeap.Reset()
	for _, l := range n.chLinks {
		if n.wcnt[l] > 0 {
			n.lnHeap.Append(n.rem[l]/float64(n.wcnt[l]), int64(l), struct{}{})
		}
	}
	n.lnHeap.Init()

	for oi := 0; oi < len(n.oldLevels); {
		if i := len(n.levels); i%ckStride == 0 && i/ckStride >= n.nCk {
			n.snapshotCk(i / ckStride)
			n.nCk = i/ckStride + 1
		}
		// Earliest pending link event of the dirty population.
		dLink, dShare := n.minLink()
		// Earliest pending rate-cap event.
		capEnt, capVal := n.peekCap()
		minPend := dShare
		if capVal < minPend {
			minPend = capVal
		}
		lv := &n.oldLevels[oi]
		if lv.value < minPend {
			if lv.link >= 0 && n.linkChanged[lv.link] {
				n.skipOldLevel(lv)
			} else if n.commitOldLevel(lv) {
				kept++
			}
			oi++
			continue
		}
		// A dirty event fires first: insert it as a new level.
		fixStart, dStart := int32(len(n.fixes)), int32(len(n.deltas))
		if capEnt >= 0 && capVal < dShare {
			n.fixMeta(capEnt, capVal)
			n.dirtyFlush(capVal)
			n.logLevel(-1, fixStart, dStart, capVal)
			continue
		}
		share := dShare
		if share < 0 {
			share = 0
		}
		nfix := int32(0)
		for _, ref := range n.linkEnts[dLink] {
			// Eligible: not yet handled this walk and not fixed in the
			// untouched prefix — prefix entities keep their rates, and
			// their consumption already left wcnt, so fixing them again
			// would corrupt both.
			if n.fixedLevel[ref.ent] >= cutLow32 &&
				n.walkEp[ref.ent] != n.epoch && n.fixedEp[ref.ent] != n.epoch {
				n.fixMeta(ref.ent, share)
				nfix++
			}
		}
		if nfix == 0 {
			// Defensive: live weight with no eligible entity would loop
			// forever. Drop the entry and force a full solve next time.
			n.lnHeap.Pop()
			n.logOK = false
			continue
		}
		n.dirtyFlush(share)
		n.logLevel(dLink, fixStart, dStart, share)
	}
	return kept
}

// skipOldLevel drops a level whose recorded bottleneck share went stale:
// its surviving entities join the pending set (their rate must be
// re-derived) and their links the dirty set. The level's link deltas name
// every link of its entries; the links of diverged entries are dirty
// already, so marking them all dirties exactly the survivors' links.
func (n *Net) skipOldLevel(lv *level) {
	n.orphanLevels++
	for _, f := range n.oldFixes[lv.fixStart : lv.fixStart+lv.nfix] {
		if n.genByID[f.ent] != f.gen || n.fixedEp[f.ent] == n.epoch {
			continue
		}
		n.queuePending(f.ent, &n.ents[f.ent])
	}
	for _, d := range n.oldDeltas[lv.dStart : lv.dStart+lv.nd] {
		if l := d.link; !n.linkChanged[l] {
			n.linkChanged[l] = true
			n.chLinks = append(n.chLinks, l)
			n.pushLink(l)
		}
	}
}

// commitOldLevel re-appends a level whose bottleneck is still clean, whole:
// its fix range and its link deltas are copied in one block each and the
// deltas flushed, so its entities keep their rates and clean links
// receive exactly the old trajectory's flush, keeping their fair-share
// evolution bit-identical. A level commits whole or not at all. Entries
// diverge through completed flows, slot reuse (gen), refixing by an
// inserted event (fixedEp) or a pending state (solveEp, changed or
// orphaned), and each of these dirtied every link of the entity. A link
// level fixes only entities crossing its bottleneck, so with that link
// clean none of its entries diverged; only a cap level's single entity
// can, and the level is then dropped. It reports whether it committed.
func (n *Net) commitOldLevel(lv *level) bool {
	fs := n.oldFixes[lv.fixStart : lv.fixStart+lv.nfix]
	for i := range fs {
		if f := &fs[i]; n.genByID[f.ent] != f.gen ||
			n.fixedEp[f.ent] == n.epoch || n.solveEp[f.ent] == n.epoch {
			return false
		}
	}
	idx := int32(len(n.levels))
	for i := range fs {
		n.walkEp[fs[i].ent] = n.epoch
		n.fixedLevel[fs[i].ent] = idx
	}
	ds := n.oldDeltas[lv.dStart : lv.dStart+lv.nd]
	n.applyDeltas(ds, lv.value)
	fixStart, dStart := int32(len(n.fixes)), int32(len(n.deltas))
	n.fixes = append(n.fixes, fs...)
	n.deltas = append(n.deltas, ds...)
	n.logLevel(lv.link, fixStart, dStart, lv.value)
	n.levelsRecommitted++
	return true
}

// dirtyFlush marks every link touched by an inserted level dirty (its
// trajectory now diverges from the old log) before flushing the level's
// consumption. Newly dirty links enter the heap keyed with their
// pre-flush share — a valid lower bound, since shares only grow.
func (n *Net) dirtyFlush(r float64) {
	for _, l := range n.touchedLn {
		if !n.linkChanged[l] {
			n.linkChanged[l] = true
			n.chLinks = append(n.chLinks, l)
			n.pushLink(l)
		}
	}
	n.flushLevel(r)
}

// applyDeltas re-applies a logged level's flush to rem and wcnt only —
// the rates of its entities are already correct and stay untouched. The
// stored deltas are the per-link weights flushLevel applied when it wrote
// the level, and each gets the same multiply-subtract, clamp and count
// decrement, so the replay reproduces the solver state bit for bit
// (logged entities are unchanged, hence current weights equal fix-time
// weights).
func (n *Net) applyDeltas(ds []linkDelta, r float64) {
	rem, wcnt := n.rem, n.wcnt
	for _, d := range ds {
		rem[d.link] -= float64(d.w) * r
		if rem[d.link] < 0 {
			rem[d.link] = 0
		}
		wcnt[d.link] -= d.w
	}
}

// flushLevel applies one level's accumulated per-link weight at rate r:
// every distinct link gets a single multiply-subtract and weight-count
// decrement regardless of how many entities the level fixed (on the
// hierarchical presets a saturating node link drains its cabinet uplink
// once, not once per receiver), logged as the level's link deltas.
func (n *Net) flushLevel(r float64) {
	for _, l := range n.touchedLn {
		w := n.wsum[l]
		n.wsum[l] = 0
		n.deltas = append(n.deltas, linkDelta{link: l, w: w})
		n.rem[l] -= float64(w) * r
		if n.rem[l] < 0 {
			n.rem[l] = 0
		}
		n.wcnt[l] -= w
	}
	n.touchedLn = n.touchedLn[:0]
}

// fixMeta freezes one entity of the level being built: rate, epoch stamps
// and the fix-log entry, with the link consumption deferred to flushLevel.
func (n *Net) fixMeta(eid int32, rate float64) {
	e := &n.ents[eid]
	e.rate = rate
	n.rates[e.pos] = rate
	n.fixedEp[eid] = n.epoch
	n.bumpDeadline(eid, e)
	n.fixedLevel[eid] = int32(len(n.levels))
	n.fixes = append(n.fixes, fixEntry{ent: eid, gen: e.gen})
	for _, l := range e.links {
		if n.wsum[l] == 0 {
			n.touchedLn = append(n.touchedLn, l)
		}
		n.wsum[l] += e.weight
	}
	n.unfixed--
}

// logLevel appends the level whose fix entries and link deltas were
// written to the log from fixStart and dStart on.
func (n *Net) logLevel(link, fixStart, dStart int32, value float64) {
	if link >= 0 {
		n.bnLevel[link] = int32(len(n.levels))
	}
	n.levels = append(n.levels, level{
		link: link, value: value,
		fixStart: fixStart, nfix: int32(len(n.fixes)) - fixStart,
		dStart: dStart, nd: int32(len(n.deltas)) - dStart,
	})
}

// snapshotCk stores the current state as checkpoint c (the state before
// level c*ckStride): rem, and the weight the levels before it consumed,
// linkWeight − wcnt. Entities fixed before the checkpoint are unchanged
// while it is valid, so the consumed weight needs no upkeep when other
// entities come and go: a restore reads wcnt = linkWeight − consumed.
func (n *Net) snapshotCk(c int) {
	nl := len(n.caps)
	need := (c + 1) * nl
	if cap(n.ckRem) < need {
		grown := make([]float64, need, 2*need)
		copy(grown, n.ckRem)
		n.ckRem = grown
		grownU := make([]int32, need, 2*need)
		copy(grownU, n.ckUsed)
		n.ckUsed = grownU
	}
	n.ckRem = n.ckRem[:need]
	n.ckUsed = n.ckUsed[:need]
	// Links without live weight hold stale scratch (the sparse restore
	// never rewrites them); their canonical state is the full capacity:
	// a link with no live entities has no fixes in the log, hence no
	// prefix consumption (every dead entity's fix entry has been cut or
	// dropped by the walk before a snapshot can see it).
	ckR, ckU := n.ckRem[c*nl:need], n.ckUsed[c*nl:need]
	copy(ckR, n.caps)
	for i := range ckU {
		ckU[i] = 0
	}
	for _, l := range n.liveLinks {
		ckR[l], ckU[l] = n.rem[l], n.linkWeight[l]-n.wcnt[l]
	}
}

// fill runs weighted progressive filling over the unfixed population,
// appending the levels it discovers to the log and checkpointing the
// state every ckStride levels. It mirrors the reference solver
// (oracle.MaxMin): repeatedly take the smallest pending event — the minimum
// fair share remaining/weight over active links, or the smallest unfixed
// rate cap when lower — freeze the constrained entities, remove their
// consumption (batched per level through flushLevel), repeat. Stragglers
// that no event can fix (infinite-capacity links yield +Inf shares that
// never win the strict minimum test) are frozen at their caps and then
// deterministically at 0, invalidating the log.
func (n *Net) fill() {
	if n.unfixed == 0 {
		return
	}
	// The bottleneck candidate comes from the lazy link heap over the
	// active links (minLink), keyed by (fair share, link id). Ties
	// break on the link id, reproducing the reference solver's
	// ascending-id scan exactly.
	n.lnHeap.Reset()
	for _, l := range n.liveLinks {
		if n.wcnt[l] > 0 {
			n.lnHeap.Append(n.rem[l]/float64(n.wcnt[l]), int64(l), struct{}{})
		}
	}
	n.lnHeap.Init()
	solveEp, fixedEp, epoch := n.solveEp, n.fixedEp, n.epoch

	for n.unfixed > 0 {
		if i := len(n.levels); i%ckStride == 0 && i/ckStride >= n.nCk {
			n.snapshotCk(i / ckStride)
			n.nCk = i/ckStride + 1
		}
		// Candidate 1: smallest fair share among active links. Infinite
		// shares leave bottleneck unset, routing control to the
		// defensive path below.
		bottleneck, share := n.minLink()
		// Candidate 2: smallest cap among pending capped entities.
		capEnt, capVal := n.peekCap()
		if capEnt >= 0 && !(capVal < share) {
			capEnt = -1
		}
		fixStart, dStart := int32(len(n.fixes)), int32(len(n.deltas))
		switch {
		case capEnt >= 0:
			n.fixMeta(capEnt, capVal)
			n.flushLevel(capVal)
			n.logLevel(-1, fixStart, dStart, capVal)
		case bottleneck >= 0:
			if share < 0 {
				share = 0
			}
			for _, ref := range n.linkEnts[bottleneck] {
				if solveEp[ref.ent] == epoch && fixedEp[ref.ent] != epoch {
					n.fixMeta(ref.ent, share)
				}
			}
			n.flushLevel(share)
			n.logLevel(bottleneck, fixStart, dStart, share)
		default:
			// Defensive no-progress path (mirrors the reference solver):
			// freeze the remaining capped entities at their caps, anything
			// left at 0, one flush each, and drop the log — these events
			// are not ordered levels a later replay could trust. The caps
			// are read off the entities, not the cap heap, which holds
			// only binding caps.
			for _, eid := range n.unfixedList {
				if fixedEp[eid] != epoch {
					r := 0.0
					if c := n.ents[eid].cap; c > 0 {
						r = c
					}
					n.fixMeta(eid, r)
					n.flushLevel(r)
				}
			}
			n.logOK = false
			return
		}
	}
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
