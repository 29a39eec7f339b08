package flownet

import (
	"math"
	"sort"
)

// level is one progressive-filling event of the bottleneck log: either a
// saturated link (link >= 0) fixing the next nfix entities of the fix log
// at the fair share value, or a rate-cap freeze (link == -1) fixing one
// entity at its cap. Values are nondecreasing along the log — the merge
// replay and the fill both emit events in firing order — which is what
// lets Solve binary-search the log for the share-condition cut.
type level struct {
	link     int32
	nfix     int32
	fixStart int32 // index of the level's first entry in Net.fixes
	value    float64
}

// fixEntry records one entity frozen by a level, with enough of the
// entity inlined (route, weight at fix time) that replaying or
// recommitting the entry streams through the fix log without touching
// the entity structs. gen detects entity-slot reuse across solves, which
// invalidates the entry; nlinks == longRoute routes the rare
// longer-than-inline route through the entity itself.
type fixEntry struct {
	ent    int32
	gen    uint32
	weight int32
	nlinks int8
	links  [maxAggRoute]int32
	rate   float64
}

const longRoute = int8(-1)

// entryLinks returns the fix entry's route, falling back to the entity
// for routes too long to inline (only valid while the entry is).
func (n *Net) entryLinks(f *fixEntry) []int32 {
	if f.nlinks >= 0 {
		return f.links[:f.nlinks]
	}
	return n.ents[f.ent].links
}

// capKey is one pending-cap heap entry: a queued capped entity keyed by
// (cap, entity id) — the candidate order progressive filling consumes
// rate-cap events in. Entities refixed by link events before their cap
// fires are skipped lazily (their fixedEp stamp marks them stale).
type capKey struct {
	cap float64
	eid int32
}

// ckStride is the checkpoint spacing: the solver snapshots the (rem,
// wcnt) state every ckStride levels, so a later solve can restore the
// state at any cut point with one O(links) copy plus at most ckStride
// levels of delta replay instead of re-applying the whole prefix.
const ckStride = 32

// DefaultScratchThreshold is the population size at or below which Solve
// re-solves from scratch without any bottleneck-log bookkeeping: for tiny
// populations (the irregular jump=2 scenario classes keep a handful of
// concurrent flows) progressive filling is cheaper than the merge replay's
// fixed costs — checkpoint restore, level/fix logging, snapshot
// maintenance — and the scratch path additionally touches only the live
// links instead of copying full capacity vectors. The solve regimes
// compute the same max-min rates up to floating-point rounding (the
// oracle suite pins them to 1e-9), so moving the threshold can change the
// last digits of a replayed makespan. 16 is measured: replaying the
// served paper-scale request pool, thresholds 32 and 64 were about 2% and
// 11% slower per replay, and at big scale the three tied.
const DefaultScratchThreshold = 16

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
	n.share = resizeF(n.share, nl)
	if cap(n.wsum) < nl {
		n.wsum = make([]int32, nl)
	}
	n.wsum = n.wsum[:nl]
	n.epoch++
	n.unfixedList = n.unfixedList[:0]
	n.capHeap = n.capHeap[:0]

	// Small populations re-solve from scratch without any log bookkeeping:
	// no levels, no fix entries, no checkpoints, and only the live links'
	// working state restored. The log is declared untrusted, so the next
	// above-threshold solve rebuilds it with one full pass.
	if n.solvable <= DefaultScratchThreshold {
		n.scratchSolves++
		for _, l := range n.chLinks {
			// Keep the checkpoint weight base in sync even though the
			// checkpoints themselves are dropped: the next full solve
			// snapshots against current weights, and later drift folds
			// must not double-count the small-era changes.
			n.lastLinkWeight[l] = n.linkWeight[l]
		}
		n.nCk = 0
		n.logOK = false
		n.levels = n.levels[:0]
		n.fixes = n.fixes[:0]
		for _, l := range n.liveLinks {
			n.rem[l] = n.caps[l]
			n.wcnt[l] = n.linkWeight[l]
		}
		for _, eid := range n.active {
			if e := &n.ents[eid]; !e.exempt {
				n.queuePending(eid, e)
			}
		}
		n.unfixed = len(n.unfixedList)
		n.nolog = true
		n.fill()
		n.nolog = false
		n.finishSolve()
		return
	}

	// Checkpoint weight maintenance: snapshots store wcnt relative to the
	// link weights of the solve that took them. Changed links fold the
	// weight drift into every retained snapshot so restores are plain
	// copies.
	for _, l := range n.chLinks {
		if d := n.linkWeight[l] - n.lastLinkWeight[l]; d != 0 {
			for c := 0; c < n.nCk; c++ {
				n.ckWcnt[c*nl+int(l)] += d
			}
			n.lastLinkWeight[l] = n.linkWeight[l]
		}
	}

	// A burst that changes most of the population (a large redistribution
	// fan-out arriving at once) makes log repair pure overhead: nearly
	// every level would be skipped or reinserted. Solve from scratch and
	// let progressive filling rebuild the log in one pass.
	full := !n.logOK || n.nCk == 0 || 2*len(n.chEnts) >= n.solvable
	n.logOK = true // the walk or the fill may drop it again
	if full {
		// Full solve: no trusted log. Start from the raw capacities and
		// seed checkpoint 0 with the initial state.
		n.fullSolves++
		n.levels = n.levels[:0]
		n.fixes = n.fixes[:0]
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
		n.mergeReplay()
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
	n.finishSolve()
}

// finishSolve clears the change tracking every solve path shares.
func (n *Net) finishSolve() {
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

// FullSolves, IncrementalSolves and ScratchSolves report how often Solve
// re-solved from scratch with logging, repaired the level log, or took the
// small-population scratch path (diagnostics and tests).
func (n *Net) FullSolves() int        { return n.fullSolves }
func (n *Net) IncrementalSolves() int { return n.incrSolves }
func (n *Net) ScratchSolves() int     { return n.scratchSolves }

// CheckpointRestores counts merge-replay solves that rewound the level log
// to a stride checkpoint; OrphanedLevels counts old levels dropped because
// their recorded bottleneck share went stale during the merge walk.
func (n *Net) CheckpointRestores() int { return n.ckRestores }
func (n *Net) OrphanedLevels() int     { return n.orphanLevels }

// queuePending moves a live non-exempt entity into the pending set: it
// must be (re)fixed this solve, by a merge-walk event or by the fill.
// Capped entities also enter the pending-cap heap.
func (n *Net) queuePending(eid int32, e *entity) {
	if n.solveEp[eid] == n.epoch {
		return
	}
	n.solveEp[eid] = n.epoch
	n.unfixedList = append(n.unfixedList, eid)
	if e.cap > 0 {
		n.capHeap = append(n.capHeap, capKey{cap: e.cap, eid: eid})
		n.capSiftUp(len(n.capHeap) - 1)
	}
}

// peekCap returns the earliest pending rate-cap event, lazily discarding
// entities already refixed by link events.
func (n *Net) peekCap() (int32, float64) {
	for len(n.capHeap) > 0 {
		top := n.capHeap[0]
		if n.fixedEp[top.eid] != n.epoch {
			return top.eid, top.cap
		}
		last := len(n.capHeap) - 1
		n.capHeap[0] = n.capHeap[last]
		n.capHeap = n.capHeap[:last]
		if last > 0 {
			n.capSiftDown(0)
		}
	}
	return -1, math.Inf(1)
}

func (n *Net) capLess(a, b capKey) bool {
	if a.cap != b.cap {
		return a.cap < b.cap
	}
	return a.eid < b.eid
}

func (n *Net) capSiftUp(i int) {
	h := n.capHeap
	for i > 0 {
		p := (i - 1) / 2
		if !n.capLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (n *Net) capSiftDown(i int) {
	h := n.capHeap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && n.capLess(h[r], h[c]) {
			c = r
		}
		if !n.capLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
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
//     fair share of every changed link and the cap of every changed
//     capped entity (shares only grow as filling progresses, so the
//     level-0 share is a lower bound on the pending event). Restored
//     from the nearest checkpoint plus pure delta replay.
//
//  2. Merge walk: the old suffix is moved aside and replayed level by
//     level. While an old level fires before every pending dirty event,
//     it is either recommitted — batched link deltas, entities keep
//     their rates — or, when its bottleneck link went dirty (its
//     recorded share is stale), skipped: its entities join the pending
//     set and their links the dirty set. When a dirty event fires first,
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
func (n *Net) mergeReplay() {
	nl := len(n.caps)
	capPending := math.Inf(1)
	for _, eid := range n.chEnts {
		e := &n.ents[eid]
		if e.weight == 0 || e.exempt || e.cap <= 0 {
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
	// remaining unchecked levels as pure (rem, wcnt) deltas. Checkpoints
	// above cutLow reflect the old population's trajectory and are
	// dropped; the walk re-snapshots as the rebuilt log passes the
	// stride boundaries.
	ck := cutLow / ckStride
	if ck >= n.nCk {
		ck = n.nCk - 1
	}
	n.ckRestores++
	ckR, ckW := n.ckRem[ck*nl:(ck+1)*nl], n.ckWcnt[ck*nl:(ck+1)*nl]
	for _, l := range n.liveLinks {
		n.rem[l], n.wcnt[l] = ckR[l], ckW[l]
	}
	for _, l := range n.chLinks {
		n.rem[l], n.wcnt[l] = ckR[l], ckW[l]
	}
	for li := ck * ckStride; li < cutLow; li++ {
		n.replayLevel(li)
	}
	if c := cutLow/ckStride + 1; c < n.nCk {
		n.nCk = c
	}

	// Move the old suffix aside; the walk rebuilds the log in place.
	cutFix := len(n.fixes)
	if cutLow < len(n.levels) {
		cutFix = int(n.levels[cutLow].fixStart)
	}
	n.oldLevels = append(n.oldLevels[:0], n.levels[cutLow:]...)
	n.oldFixes = append(n.oldFixes[:0], n.fixes[cutFix:]...)
	for i := range n.oldLevels {
		n.oldLevels[i].fixStart -= int32(cutFix)
	}
	n.levels = n.levels[:cutLow]
	n.fixes = n.fixes[:cutFix]
	cutLow32 := int32(cutLow)

	// Dirty-link heap over the changed links with live weight.
	n.lnHeap = n.lnHeap[:0]
	for _, l := range n.chLinks {
		if n.wcnt[l] > 0 {
			n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
		}
	}
	for i := len(n.lnHeap)/2 - 1; i >= 0; i-- {
		n.lnSiftDown(i)
	}

	for oi := 0; oi < len(n.oldLevels); {
		if i := len(n.levels); i%ckStride == 0 && i/ckStride >= n.nCk {
			n.snapshotCk(i / ckStride)
			n.nCk = i/ckStride + 1
		}
		// Earliest pending link event of the dirty population.
		dShare := math.Inf(1)
		dLink := int32(-1)
		for len(n.lnHeap) > 0 {
			top := n.lnHeap[0]
			if n.wcnt[top.link] == 0 {
				last := len(n.lnHeap) - 1
				n.lnHeap[0] = n.lnHeap[last]
				n.lnHeap = n.lnHeap[:last]
				if last > 0 {
					n.lnSiftDown(0)
				}
				continue
			}
			if cur := n.rem[top.link] / float64(n.wcnt[top.link]); cur != top.share {
				n.lnHeap[0].share = cur
				n.lnSiftDown(0)
				continue
			}
			if !math.IsInf(top.share, 1) {
				dShare, dLink = top.share, top.link
			}
			break
		}
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
			} else {
				n.commitOldLevel(lv)
			}
			oi++
			continue
		}
		// A dirty event fires first: insert it as a new level.
		if capEnt >= 0 && capVal < dShare {
			fixStart := int32(len(n.fixes))
			n.fixMeta(capEnt, capVal)
			n.dirtyFlush(capVal)
			n.levels = append(n.levels, level{link: -1, nfix: 1, fixStart: fixStart, value: capVal})
			continue
		}
		share := dShare
		if share < 0 {
			share = 0
		}
		fixStart := int32(len(n.fixes))
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
			last := len(n.lnHeap) - 1
			n.lnHeap[0] = n.lnHeap[last]
			n.lnHeap = n.lnHeap[:last]
			if last > 0 {
				n.lnSiftDown(0)
			}
			n.logOK = false
			continue
		}
		n.dirtyFlush(share)
		n.bnLevel[dLink] = int32(len(n.levels))
		n.levels = append(n.levels, level{link: dLink, nfix: nfix, fixStart: fixStart, value: share})
	}
}

// skipOldLevel drops a level whose recorded bottleneck share went stale:
// its surviving entities join the pending set (their rate must be
// re-derived) and their links the dirty set.
func (n *Net) skipOldLevel(lv *level) {
	n.orphanLevels++
	end := int(lv.fixStart) + int(lv.nfix)
	for fi := int(lv.fixStart); fi < end; fi++ {
		f := &n.oldFixes[fi]
		if n.genByID[f.ent] != f.gen || n.fixedEp[f.ent] == n.epoch {
			continue
		}
		n.queuePending(f.ent, &n.ents[f.ent])
		for _, l := range n.entryLinks(f) {
			if !n.linkChanged[l] {
				n.linkChanged[l] = true
				n.chLinks = append(n.chLinks, l)
				if n.wcnt[l] > 0 {
					n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
					n.lnSiftUp(len(n.lnHeap) - 1)
				}
			}
		}
	}
}

// commitOldLevel re-appends a level whose bottleneck is still clean.
// Entries that diverged (completed flows, slot reuse, pending or already
// refixed entities — all of which also dirtied their links) are dropped;
// the survivors keep their rates, and only their link consumption is
// flushed. Clean links receive exactly the delta of the old trajectory,
// so their fair-share evolution stays bit-identical.
func (n *Net) commitOldLevel(lv *level) {
	end := int(lv.fixStart) + int(lv.nfix)
	fixStart := int32(len(n.fixes))
	nfix := int32(0)
	idx := int32(len(n.levels))
	for fi := int(lv.fixStart); fi < end; fi++ {
		f := &n.oldFixes[fi]
		// Divergent entries drop out: dead or reused slots (gen), entities
		// refixed by an inserted event (fixedEp), and pending entities
		// (solveEp — changed or orphaned; all of these also dirtied their
		// links, so clean links still see the old trajectory's delta).
		if n.genByID[f.ent] != f.gen ||
			n.fixedEp[f.ent] == n.epoch || n.solveEp[f.ent] == n.epoch {
			continue
		}
		n.walkEp[f.ent] = n.epoch
		n.fixedLevel[f.ent] = idx
		n.fixes = append(n.fixes, *f)
		for _, l := range n.entryLinks(f) {
			if n.wsum[l] == 0 {
				n.touchedLn = append(n.touchedLn, l)
			}
			n.wsum[l] += f.weight
		}
		nfix++
	}
	if nfix == 0 {
		return
	}
	n.flushLevel(lv.value, false)
	if lv.link >= 0 {
		n.bnLevel[lv.link] = int32(len(n.levels))
	}
	n.levels = append(n.levels, level{link: lv.link, nfix: nfix, fixStart: fixStart, value: lv.value})
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
			if n.wcnt[l] > 0 {
				n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
				n.lnSiftUp(len(n.lnHeap) - 1)
			}
		}
	}
	n.flushLevel(r, false)
}

// replayLevel applies one unchecked level's fixes to rem and wcnt only —
// rates of its entities are already correct and stay untouched. It
// accumulates the level's per-link weight exactly like the fill or commit
// that wrote the level (same entry order, same flush order, same single
// multiply-subtract per distinct link), so the replay reproduces the
// solver state bit for bit (entities below the cut are unchanged, hence
// current weights equal fix-time weights).
func (n *Net) replayLevel(li int) {
	lv := n.levels[li]
	end := int(lv.fixStart) + int(lv.nfix)
	for fi := int(lv.fixStart); fi < end; fi++ {
		f := &n.fixes[fi]
		for _, l := range n.entryLinks(f) {
			if n.wsum[l] == 0 {
				n.touchedLn = append(n.touchedLn, l)
			}
			n.wsum[l] += f.weight
		}
	}
	n.flushLevel(lv.value, false)
}

// flushLevel applies one level's accumulated per-link weight at rate r:
// every distinct link gets a single multiply-subtract and weight-count
// decrement regardless of how many entities the level fixed (on the
// hierarchical presets a saturating node link drains its cabinet uplink
// once, not once per receiver). With updateShares set the cached fair
// shares of the touched links are refreshed for the fill's link heap.
func (n *Net) flushLevel(r float64, updateShares bool) {
	for _, l := range n.touchedLn {
		w := n.wsum[l]
		n.wsum[l] = 0
		n.rem[l] -= float64(w) * r
		if n.rem[l] < 0 {
			n.rem[l] = 0
		}
		if n.wcnt[l] -= w; n.wcnt[l] > 0 && updateShares {
			n.share[l] = n.rem[l] / float64(n.wcnt[l])
		}
	}
	n.touchedLn = n.touchedLn[:0]
}

// fixMeta freezes one entity of the level being built: rate, epoch stamps
// and the fix-log entry, with the link consumption deferred to flushLevel.
// In nolog (small-population) mode the fix log is skipped and the entity is
// marked as absent from it.
func (n *Net) fixMeta(eid int32, rate float64) {
	e := &n.ents[eid]
	e.rate = rate
	n.rates[e.pos] = rate
	n.fixedEp[eid] = n.epoch
	n.bumpDeadline(eid, e)
	if n.nolog {
		n.fixedLevel[eid] = noLevel
	} else {
		n.fixedLevel[eid] = int32(len(n.levels))
		f := fixEntry{ent: eid, gen: e.gen, weight: e.weight, rate: rate}
		if len(e.links) <= maxAggRoute {
			f.nlinks = int8(copy(f.links[:], e.links))
		} else {
			f.nlinks = longRoute
		}
		n.fixes = append(n.fixes, f)
	}
	for _, l := range e.links {
		if n.wsum[l] == 0 {
			n.touchedLn = append(n.touchedLn, l)
		}
		n.wsum[l] += e.weight
	}
	n.unfixed--
}

// snapshotCk stores the current (rem, wcnt) as checkpoint c (the state
// before level c*ckStride).
func (n *Net) snapshotCk(c int) {
	nl := len(n.caps)
	need := (c + 1) * nl
	if cap(n.ckRem) < need {
		grown := make([]float64, need, 2*need)
		copy(grown, n.ckRem)
		n.ckRem = grown
		grownW := make([]int32, need, 2*need)
		copy(grownW, n.ckWcnt)
		n.ckWcnt = grownW
	}
	n.ckRem = n.ckRem[:need]
	n.ckWcnt = n.ckWcnt[:need]
	// Links without live weight hold stale scratch (the sparse restore
	// never rewrites them); their canonical state is the full capacity:
	// a link with no live entities has no fixes in the log, hence no
	// prefix consumption (every dead entity's fix entry has been cut or
	// dropped by the walk before a snapshot can see it).
	ckR, ckW := n.ckRem[c*nl:need], n.ckWcnt[c*nl:need]
	copy(ckR, n.caps)
	for i := range ckW {
		ckW[i] = 0
	}
	for _, l := range n.liveLinks {
		ckR[l], ckW[l] = n.rem[l], n.wcnt[l]
	}
}

// applyFix freezes an entity's rate and removes its consumption from the
// working state; only the defensive no-progress path uses it (the level
// fills go through fixMeta + flushLevel).
func (n *Net) applyFix(eid int32, rate float64) {
	e := &n.ents[eid]
	e.rate = rate
	n.rates[e.pos] = rate
	n.bumpDeadline(eid, e)
	n.fixedEp[eid] = n.epoch
	w := float64(e.weight)
	for _, l := range e.links {
		n.rem[l] -= w * rate
		if n.rem[l] < 0 {
			n.rem[l] = 0
		}
		n.wcnt[l] -= e.weight
	}
	n.unfixed--
}

// fill runs weighted progressive filling over the unfixed population,
// appending the levels it discovers to the log and checkpointing the
// state every ckStride levels. It mirrors the reference solver in
// internal/sim: repeatedly take the smallest pending event — the minimum
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
	// The bottleneck candidate comes from a lazy min-heap of the active
	// links keyed by (cached fair share, link id). Fair shares only grow
	// while filling progresses (every fix runs at or below the current
	// minimum), so a stale heap key is a valid lower bound: the top is
	// re-keyed in place when its cached share moved, and discarded when
	// its link saturated. Ties break on the link id, reproducing the
	// reference solver's ascending-id scan exactly.
	n.lnHeap = n.lnHeap[:0]
	for _, l := range n.liveLinks {
		if n.wcnt[l] > 0 {
			sh := n.rem[l] / float64(n.wcnt[l])
			n.share[l] = sh
			n.lnHeap = append(n.lnHeap, lnKey{share: sh, link: l})
		}
	}
	for i := len(n.lnHeap)/2 - 1; i >= 0; i-- {
		n.lnSiftDown(i)
	}
	solveEp, fixedEp, epoch := n.solveEp, n.fixedEp, n.epoch
	wcnt, shares := n.wcnt, n.share

	for n.unfixed > 0 {
		if i := len(n.levels); !n.nolog && i%ckStride == 0 && i/ckStride >= n.nCk {
			n.snapshotCk(i / ckStride)
			n.nCk = i/ckStride + 1
		}
		// Candidate 1: smallest fair share among active links.
		share := math.Inf(1)
		bottleneck := int32(-1)
		for len(n.lnHeap) > 0 {
			top := n.lnHeap[0]
			if wcnt[top.link] == 0 {
				last := len(n.lnHeap) - 1
				n.lnHeap[0] = n.lnHeap[last]
				n.lnHeap = n.lnHeap[:last]
				if last > 0 {
					n.lnSiftDown(0)
				}
				continue
			}
			if cur := shares[top.link]; cur != top.share {
				n.lnHeap[0].share = cur
				n.lnSiftDown(0)
				continue
			}
			// Links with infinite capacity never win the reference
			// solver's strict minimum test; leaving bottleneck unset
			// routes control to the defensive path below.
			if !math.IsInf(top.share, 1) {
				share, bottleneck = top.share, top.link
			}
			break
		}
		// Candidate 2: smallest cap among pending capped entities.
		capEnt, capVal := n.peekCap()
		if capEnt >= 0 && !(capVal < share) {
			capEnt = -1
		}
		switch {
		case capEnt >= 0:
			fixStart := int32(len(n.fixes))
			n.fixMeta(capEnt, capVal)
			n.flushLevel(capVal, true)
			if !n.nolog {
				n.levels = append(n.levels, level{link: -1, nfix: 1, fixStart: fixStart, value: capVal})
			}
		case bottleneck >= 0:
			if share < 0 {
				share = 0
			}
			fixStart := int32(len(n.fixes))
			nfix := int32(0)
			for _, ref := range n.linkEnts[bottleneck] {
				if solveEp[ref.ent] == epoch && fixedEp[ref.ent] != epoch {
					n.fixMeta(ref.ent, share)
					nfix++
				}
			}
			n.flushLevel(share, true)
			if !n.nolog {
				n.bnLevel[bottleneck] = int32(len(n.levels))
				n.levels = append(n.levels, level{link: bottleneck, nfix: nfix, fixStart: fixStart, value: share})
			}
		default:
			// Defensive no-progress path (mirrors the reference solver):
			// freeze the remaining capped entities at their caps, anything
			// left at 0, and drop the log — these events are not ordered
			// levels a later replay could trust.
			for {
				eid, c := n.peekCap()
				if eid < 0 {
					break
				}
				n.applyFix(eid, c)
			}
			if n.unfixed > 0 {
				for _, eid := range n.unfixedList {
					if fixedEp[eid] != epoch {
						n.applyFix(eid, 0)
					}
				}
			}
			n.logOK = false
			return
		}
	}
}

// lnKey is one link-heap entry: the link's fair share at key time (a
// lower bound on its current share) with the link id as tie-break.
type lnKey struct {
	share float64
	link  int32
}

func (n *Net) lnLess(a, b lnKey) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	return a.link < b.link
}

func (n *Net) lnSiftDown(i int) {
	h := n.lnHeap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && n.lnLess(h[r], h[c]) {
			c = r
		}
		if !n.lnLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (n *Net) lnSiftUp(i int) {
	h := n.lnHeap
	for i > 0 {
		p := (i - 1) / 2
		if !n.lnLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
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
