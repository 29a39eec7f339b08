package alloc

import (
	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// This file is the incremental allocation engine behind Compute. The
// CPA-family refinement loop repeats thousands of single-processor grants,
// and each grant only changes the execution time of ONE task — yet the
// original procedure (reference.go) re-walked the entire DAG per step:
// full bottom- and top-level passes, a full work re-summation and a full
// candidate scan, each calling back into the Amdahl cost model. The engine
// replaces every one of those O(V+E) passes with state that is maintained
// under the point update:
//
//   - levels    — a dag.LevelTracker repairs bottom/top levels over the
//     ancestor/descendant cone of the granted task only;
//   - C∞        — the max over the entry tasks' bottom levels: along any
//     predecessor chain the bottom level is non-decreasing (levels add
//     non-negative costs, and IEEE round-to-nearest keeps fl(a+b) ≥ a for
//     b ≥ 0), so an entry always attains the maximum — no scan needed;
//   - candidates — a position-mapped max-heap over tl(t)+bl(t) with one
//     entry per task; every critical-path task sits within tolerance of
//     C∞, so walking the heap's array from the root and descending only
//     into subtrees above the threshold enumerates the candidate set
//     without mutating the heap. Grants only ever shrink levels (costs
//     decrease, and max/plus are monotone even in float arithmetic), so a
//     key update is a decrease-key sift-down that usually stops at the
//     first child comparison;
//   - work area — per-task work values with a cached prefix fold,
//     re-summed only from the index of the task whose allocation grew;
//   - cost model — a moldable.Table memoizes T(t, p) lookups, which the
//     candidate scan hits with the same arguments every step.
//
// Equivalence with the reference is exact, not approximate: every float
// that feeds a decision (C∞, the area, tl+bl, the tolerance, the gains) is
// produced by the same operations on the same operands — or is provably
// the same value, as for C∞ — so all comparisons branch identically and
// the returned allocations are byte-identical. TestAllocOracleEquivalence
// and the golden digests in golden_test.go enforce this.

// candHeap is a position-mapped binary max-heap with exactly one entry
// per task, supporting in-place key updates. key and task are indexed by
// heap slot; slot maps a task back to its current position. Readers may
// traverse the arrays directly (the candidate walk below does), because
// every entry is always current.
type candHeap struct {
	key  []float64
	task []int
	slot []int
}

func newCandHeap(keys []float64) *candHeap {
	n := len(keys)
	h := &candHeap{
		key:  append([]float64(nil), keys...),
		task: make([]int, n),
		slot: make([]int, n),
	}
	for t := 0; t < n; t++ {
		h.task[t] = t
		h.slot[t] = t
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *candHeap) swap(i, j int) {
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.task[i], h.task[j] = h.task[j], h.task[i]
	h.slot[h.task[i]] = i
	h.slot[h.task[j]] = j
}

func (h *candHeap) siftDown(i int) {
	n := len(h.key)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.key[l] > h.key[best] {
			best = l
		}
		if r < n && h.key[r] > h.key[best] {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *candHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.key[i] <= h.key[p] {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// update sets task t's key and restores the heap order. Refinement only
// ever decreases keys (the sift-down usually stops at the first child
// comparison), but increases are handled too for robustness.
func (h *candHeap) update(t int, k float64) {
	i := h.slot[t]
	old := h.key[i]
	h.key[i] = k
	if k < old {
		h.siftDown(i)
	} else if k > old {
		h.siftUp(i)
	}
}

// set writes task t's key without restoring the heap order; the caller
// must run heapify before the next read. Used for bulk cone updates,
// where one near-linear heapify beats per-entry sift cascades through
// regions of near-equal keys.
func (h *candHeap) set(t int, k float64) {
	h.key[h.slot[t]] = k
}

// heapify restores the heap order after a batch of set calls. On an
// almost-ordered array most sift-downs exit on the first comparison, so
// the pass costs ~1.5n comparisons independent of how many keys moved.
func (h *candHeap) heapify() {
	for i := len(h.key)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// computeIncremental is the engine entry point; Compute delegates to it.
func computeIncremental(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, opts Options) []int {
	n := g.N()
	allocs := make([]int, n)
	real := 0
	for t := 0; t < n; t++ {
		if !g.Tasks[t].Virtual {
			allocs[t] = 1
			real++
		}
	}
	if real == 0 {
		return allocs
	}

	denom := float64(cl.P)
	if opts.Method == HCPA || opts.Method == MCPA {
		if real < cl.P {
			denom = float64(real)
		}
	}

	// Per-level processor budget for MCPA, and per-task level caps for
	// HCPA — identical to the reference walk.
	var levelOf []int
	var levelUse []int
	taskCap := make([]int, n)
	for t := range taskCap {
		taskCap[t] = cl.P
	}
	if opts.Method == MCPA || opts.Method == HCPA {
		lvl, nl := g.Levels()
		levelOf = lvl
		levelUse = make([]int, nl)
		width := make([]int, nl)
		for t := 0; t < n; t++ {
			if !g.Tasks[t].Virtual {
				levelUse[lvl[t]]++
				width[lvl[t]]++
			}
		}
		if opts.Method == HCPA {
			for t := 0; t < n; t++ {
				if g.Tasks[t].Virtual || width[lvl[t]] == 0 {
					continue
				}
				c := (cl.P + width[lvl[t]] - 1) / width[lvl[t]]
				if c < 1 {
					c = 1
				}
				taskCap[t] = c
			}
		}
	}

	tb := moldable.NewTable(costs)

	// Initial per-task execution times (the tracker takes ownership of the
	// slice and mutates it through SetTaskCost).
	execTime := make([]float64, n)
	for t := 0; t < n; t++ {
		if !g.Tasks[t].Virtual {
			execTime[t] = tb.Time(t, allocs[t])
		}
	}
	// The critical path is computation-only: every edge costs zero.
	lt := dag.NewLevelTracker(g, execTime, make([]float64, len(g.Edges)))
	if lt == nil {
		// Cyclic graph: the reference walk sees nil level slices, takes
		// C∞ = 0 ≤ area and stops at one processor per task.
		return allocs
	}
	entries := g.Entries()

	// Work area with a cached prefix fold: workPrefix[i] is the running
	// sum after folding tasks 0..i-1 left to right (virtual tasks
	// contribute nothing, exactly like the reference's skip), so the total
	// only needs re-folding from the single task whose allocation grew.
	workOf := make([]float64, n)
	workPrefix := make([]float64, n+1)
	for t := 0; t < n; t++ {
		if !g.Tasks[t].Virtual {
			workOf[t] = tb.Work(t, allocs[t])
		}
	}
	refoldWork := func(from int) {
		s := workPrefix[from]
		for t := from; t < n; t++ {
			if !g.Tasks[t].Virtual {
				s += workOf[t]
			}
			workPrefix[t+1] = s
		}
	}
	refoldWork(0)

	// Cached per-task grant gains T(t, Np) − T(t, Np+1): the selection
	// below reads them as plain loads, and a gain only changes when the
	// task's own allocation grows.
	gainOf := make([]float64, n)
	for t := 0; t < n; t++ {
		if !g.Tasks[t].Virtual && allocs[t] < cl.P {
			gainOf[t] = tb.Time(t, allocs[t]) - tb.Time(t, allocs[t]+1)
		}
	}

	// Eligibility bitmap: a task leaves the candidate pool for good when
	// it is virtual, saturated (cluster size or level cap), or — under
	// MCPA — when its whole level's budget is exhausted. All of these are
	// one-way transitions, so the selection tests a single byte.
	eligible := make([]bool, n)
	for t := 0; t < n; t++ {
		eligible[t] = !g.Tasks[t].Virtual && allocs[t] < cl.P && allocs[t] < taskCap[t]
	}
	var levelTasks [][]int
	if opts.Method == MCPA {
		levelTasks = make([][]int, len(levelUse))
		for t := 0; t < n; t++ {
			if !g.Tasks[t].Virtual {
				levelTasks[levelOf[t]] = append(levelTasks[levelOf[t]], t)
			}
		}
		for l, use := range levelUse {
			if use >= cl.P {
				for _, t := range levelTasks[l] {
					eligible[t] = false
				}
			}
		}
	}

	// The candidate priority structure over tl(t) + bl(t).
	pathKey := make([]float64, n)
	for t := 0; t < n; t++ {
		pathKey[t] = lt.TopLevel(t) + lt.BottomLevel(t)
	}
	ph := newCandHeap(pathKey)
	dfs := make([]int, 0, n)

	// Observability: accumulate into locals and fold into opts.Obs once
	// after the loop, so granting stays free of pointer indirection.
	var nGrants, nRepairs, nConeTasks, nSifts, nHeapifies uint64
	tracer := opts.Tracer

	const rel = 1e-9
	for {
		// C∞ = max bottom level, attained at an entry task (see the file
		// comment); the fold mirrors the reference's max-from-zero.
		cInf := 0.0
		for _, t := range entries {
			if v := lt.BottomLevel(t); v > cInf {
				cInf = v
			}
		}
		area := workPrefix[n] / denom
		if cInf <= area {
			break
		}
		tol := cInf * rel

		// Critical-path candidates: every task with tl+bl within tolerance
		// of C∞. The heap array is walked from the root, descending only
		// into subtrees at or above the threshold (entries are always
		// current, so no staleness checks). Selecting the grant inline
		// reproduces the reference's ascending-ID scan: maximize the gain,
		// break ties toward the smaller current allocation, then the
		// smaller task ID.
		best, bestGain := -1, 0.0
		thr := cInf - tol
		dfs = dfs[:0]
		if len(ph.key) > 0 && ph.key[0] >= thr {
			dfs = append(dfs, 0)
		}
		for len(dfs) > 0 {
			i := dfs[len(dfs)-1]
			dfs = dfs[:len(dfs)-1]
			if l := 2*i + 1; l < len(ph.key) && ph.key[l] >= thr {
				dfs = append(dfs, l)
			}
			if r := 2*i + 2; r < len(ph.key) && ph.key[r] >= thr {
				dfs = append(dfs, r)
			}
			t := ph.task[i]
			if !eligible[t] {
				continue
			}
			gain := gainOf[t]
			if gain > bestGain || (gain == bestGain && best >= 0 &&
				(allocs[t] < allocs[best] || (allocs[t] == allocs[best] && t < best))) {
				best, bestGain = t, gain
			}
		}
		if best < 0 || bestGain <= 0 {
			break // critical path saturated; no further benefit possible
		}

		spanStart := tracer.Begin()
		allocs[best]++
		nGrants++
		if opts.Method == MCPA {
			l := levelOf[best]
			levelUse[l]++
			if levelUse[l] >= cl.P {
				for _, t := range levelTasks[l] {
					eligible[t] = false
				}
			}
		}
		if allocs[best] >= cl.P || allocs[best] >= taskCap[best] {
			eligible[best] = false
		}
		newTime := tb.Time(best, allocs[best])
		if allocs[best] < cl.P {
			gainOf[best] = newTime - tb.Time(best, allocs[best]+1)
		} else {
			gainOf[best] = 0
		}
		workOf[best] = tb.Work(best, allocs[best])
		refoldWork(best)
		changed := lt.SetTaskCost(best, newTime)
		if len(changed) > 0 {
			nRepairs++
		}
		nConeTasks += uint64(len(changed))
		if len(changed)*8 > n {
			// Large cone: one near-linear heapify beats per-entry sift
			// cascades through the near-equal critical-path keys.
			for _, t := range changed {
				pathKey[t] = lt.TopLevel(t) + lt.BottomLevel(t)
				ph.set(t, pathKey[t])
			}
			ph.heapify()
			nHeapifies++
		} else {
			for _, t := range changed {
				pathKey[t] = lt.TopLevel(t) + lt.BottomLevel(t)
				ph.update(t, pathKey[t])
			}
			nSifts += uint64(len(changed))
		}
		tracer.End(spanStart, "alloc", "grant", int64(best), int64(len(changed)))
	}
	if opts.Obs != nil {
		opts.Obs.AllocGrants += nGrants
		opts.Obs.ConeRepairs += nRepairs
		opts.Obs.ConeTasks += nConeTasks
		opts.Obs.HeapSifts += nSifts
		opts.Obs.BulkHeapifies += nHeapifies
	}
	return allocs
}
