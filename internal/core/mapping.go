package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redist"
)

// Strategy selects the redistribution-aware mapping behaviour.
type Strategy int

const (
	// StrategyNone is the baseline HCPA mapping: allocations are never
	// modified; every task is placed on the earliest-available processors.
	StrategyNone Strategy = iota
	// StrategyDelta packs/stretches within the ⌈mindelta⌉/⌊maxdelta⌋ bounds
	// (§III, "delta").
	StrategyDelta
	// StrategyTimeCost stretches when the work ratio ρ ≥ minrho and packs
	// when the estimated finish time does not degrade (§III, "time-cost").
	StrategyTimeCost
)

// String implements fmt.Stringer. Values outside the defined set render as
// "Strategy(n)" — the Go convention for out-of-range enums — so that logs
// and error messages stay unambiguous if strategies are ever added or a raw
// integer is cast incorrectly.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "hcpa"
	case StrategyDelta:
		return "delta"
	case StrategyTimeCost:
		return "time-cost"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options parameterizes the mapping procedures. The zero value is the
// baseline mapping; DefaultNaive returns the paper's §IV-B configuration.
// The reconstructed parts of Algorithm 1 are not options: the §III-C
// secondary sort, one adoption per parent (claiming) and the delta
// strategy's finish-time guard always apply (docs/ARCHITECTURE.md,
// "Design reconstructions").
type Options struct {
	Strategy Strategy

	// MinDelta ∈ R−: fraction of the original allocation that packing may
	// remove (−0.5 ⇒ an allocation of 6 may shrink to 3). Delta strategy.
	MinDelta float64
	// MaxDelta ∈ R+: fraction of the original allocation that stretching
	// may add (0.5 ⇒ an allocation of 6 may grow to 9). Delta strategy.
	MaxDelta float64

	// MinRho ∈ (0,1]: minimum acceptable work ratio for a stretch.
	// Time-cost strategy.
	MinRho float64
	// Packing enables allocation packing in the time-cost strategy (the
	// paper finds enabling it always produces shorter schedules, Fig. 5).
	Packing bool

	// Tracer, when non-nil, records one span per task placement
	// (category "map", Arg1 = task ID, Arg2 = candidate evaluations the
	// placement cost). Placement decisions are unaffected: the tracer
	// observes, never steers.
	Tracer *obs.Tracer

	// disableDedup turns off the baseline-versus-reference candidate
	// dedup in the serial engine (see baselinePlacementDedup). Test-only:
	// the counter-asserting dedup tests compare both modes.
	disableDedup bool
	// exactAlign solves every receiver alignment with the exact Hungarian
	// assignment instead of the size-selected policy. Set by MapReference
	// and by in-package tests that mix the oracle into pooled runs.
	exactAlign bool
}

// DefaultNaive returns the naive parameter set of §IV-B for a strategy:
// mindelta = −0.5, maxdelta = 0.5, minrho = 0.5, packing allowed.
func DefaultNaive(s Strategy) Options {
	return Options{
		Strategy: s,
		MinDelta: -0.5,
		MaxDelta: 0.5,
		MinRho:   0.5,
		Packing:  true,
	}
}

// Map runs the mapping phase on graph g with the given first-step
// allocation and returns the resulting schedule. The allocation slice is
// not modified (RATS adaptations are recorded in Schedule.Alloc).
//
// Map builds a fresh MapContext per call; callers scheduling a stream of
// DAGs on one cluster should hold a MapContext and call its Map method,
// which reuses the cluster-sized scratch, the estimator and the alignment
// engine across runs.
func Map(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, alloc []int, opts Options) *Schedule {
	return NewMapContext(cl).Map(g, costs, alloc, opts)
}

// MapReference is Map with every receiver alignment solved by the exact
// Hungarian assignment (redist.AlignReceiversExact), where Map switches to
// the greedy assignment above redist.AlignExactCap receivers. It is the
// oracle Map's size-selected alignment is measured against; production
// code never calls it.
func MapReference(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, alloc []int, opts Options) *Schedule {
	opts.exactAlign = true
	return Map(g, costs, cl, alloc, opts)
}

// getBuf returns an empty processor-set buffer from the candidate-buffer
// pool. A pool miss returns nil on purpose: the subsequent append (or
// AlignReceiversScratch) sizes the allocation to the candidate itself, not to
// the cluster, so committed sets never pin cluster-sized backing arrays.
func (m *mapper) getBuf() []int {
	if n := len(m.bufPool); n > 0 {
		b := m.bufPool[n-1][:0]
		m.bufPool = m.bufPool[:n-1]
		return b
	}
	return nil
}

// putBuf returns a discarded candidate buffer to the pool. Callers must
// only pass buffers that lost their placement race — a committed buffer
// is owned by the schedule.
func (m *mapper) putBuf(b []int) {
	if cap(b) > 0 {
		m.bufPool = append(m.bufPool, b)
	}
}

// mapper holds the mutable state of one mapping run.
type mapper struct {
	g     *dag.Graph
	costs *moldable.Costs
	cl    *platform.Cluster
	opts  Options

	// hetSpeeds routes execution-time queries through the set-aware cost
	// path (slowest member of the candidate processor set) instead of the
	// count-only oracle. False on uniform clusters, where the count-only
	// path is bit-identical and cheaper.
	hetSpeeds bool

	// Escaping per-run state: alloc, procs, start, finish and order are
	// handed to the returned Schedule (the schedule-ownership handoff), so
	// they are allocated fresh on every run even under a pooled MapContext.
	alloc  []int     // working allocation (modified by RATS)
	procs  [][]int   // assigned processor sets, rank order
	start  []float64 // estimated start times
	finish []float64 // estimated finish times
	order  []int

	// Reusable per-run scratch, sized by the graph and fully rewritten (or
	// cleared) at the start of each run.
	avail     []float64 // processor availability
	mapped    []bool
	bl        []float64 // static bottom-level priorities
	predsLeft []int
	readyBuf  []int

	// byAvail holds all processor IDs sorted by (availability, ID). A
	// commit only changes the availability of the ≤k processors the task
	// occupies, so the order is repaired incrementally (reorderAvail)
	// instead of re-sorted from scratch on every candidate evaluation.
	byAvail      []int
	availKept    []int  // reorderAvail scratch: untouched entries
	availTouched []int  // reorderAvail scratch: committed processors
	touchedMark  []bool // reorderAvail scratch, indexed by processor ID

	// Per-call scratch of the predecessor enumeration and the ready-list
	// sort. sortKey is indexed by task ID; sorter is the reusable
	// sort.Stable adapter (sort.SliceStable would allocate its closure and
	// reflect swapper on every wave re-sort).
	predsBuf []int
	sortKey  []float64
	sorter   readySorter

	// Candidate-evaluation scratch: the estimator (redistribution memo +
	// block-walk scratch, reset at the start of every run), the
	// receiver-rank alignment scratch, and the pool of discarded candidate
	// processor-set buffers.
	est          *Estimator
	alignScratch redist.AlignScratch
	bufPool      [][]int

	// nEval counts evalOn calls and nDedup the candidate evaluations
	// skipped by the baseline-versus-reference dedup (see
	// baselinePlacementDedup), both within the current run.
	nEval  int
	nDedup int

	// claimed[p] is set once a task has inherited predecessor p's
	// processor set. Each parent allocation can be adopted by at most one
	// child — the delta strategy "aims at avoiding one data redistribution
	// per task" (§IV-B) — otherwise every sibling of a popular parent
	// would pile onto the same processors and serialize. When a claim
	// happens, the δ/gain values of the remaining ready tasks that were
	// computed against that parent are recomputed and the list re-sorted
	// (Algorithm 1, lines 11–12).
	claimed []bool
}

func (m *mapper) run() *Schedule {
	// The estimator memo is keyed per run (sender sets change from graph
	// to graph), so it is dropped along with the run's counters.
	m.est.Reset()
	m.alignScratch.ResetCounters()
	m.nEval, m.nDedup = 0, 0
	n := m.g.N()
	// Escaping arrays: owned by the returned Schedule, fresh every run.
	m.procs = make([][]int, n)
	m.start = make([]float64, n)
	m.finish = make([]float64, n)
	m.order = make([]int, 0, n)
	// Task-sized scratch, grown (never shrunk) and cleared per run.
	// sortKey needs no clearing: sortReady writes every ready task's key
	// before the secondary sort reads it.
	m.mapped = growCleared(m.mapped, n)
	m.claimed = growCleared(m.claimed, n)
	if cap(m.sortKey) < n {
		m.sortKey = make([]float64, n)
	}
	m.sortKey = m.sortKey[:n]
	// Cluster-sized scratch: restore the initial all-idle state.
	for i := range m.avail {
		m.avail[i] = 0
	}
	for i := range m.byAvail {
		m.byAvail[i] = i // all availabilities are 0: sorted by ID
	}

	// Static priorities: bottom levels over allocated execution times and
	// contention-free edge estimates (§II-C).
	m.bl = m.g.BottomLevelsInto(m.bl,
		func(t int) float64 {
			if m.g.Tasks[t].Virtual {
				return 0
			}
			return m.costs.Time(t, m.alloc[t])
		},
		func(e int) float64 { return m.est.EdgeTimeSimple(m.g.Edges[e].Bytes) },
	)

	remaining := n
	if cap(m.predsLeft) < n {
		m.predsLeft = make([]int, n)
	}
	predsLeft := m.predsLeft[:n]
	for t := 0; t < n; t++ {
		predsLeft[t] = len(m.g.In(t))
	}
	ready := m.readyBuf[:0]
	for remaining > 0 {
		// Wave: every unmapped task whose predecessors are all mapped
		// (Algorithm 1, lines 3–6).
		ready = ready[:0]
		for t := 0; t < n; t++ {
			if !m.mapped[t] && predsLeft[t] == 0 {
				ready = append(ready, t)
			}
		}
		if len(ready) == 0 {
			panic("core: no ready task but tasks remain (cyclic graph?)")
		}
		m.sortReady(ready)
		for head := 0; head < len(ready); head++ {
			t := ready[head]
			var spanStart int64
			var evalsBefore int
			if tracer := m.opts.Tracer; tracer != nil {
				spanStart = tracer.Begin()
				evalsBefore = m.nEval
			}
			claimedPred := m.place(t)
			if tracer := m.opts.Tracer; tracer != nil {
				tracer.End(spanStart, "map", "place", int64(t), int64(m.nEval-evalsBefore))
			}
			m.mapped[t] = true
			m.order = append(m.order, t)
			remaining--
			for _, e := range m.g.Out(t) {
				predsLeft[m.g.Edges[e].To]--
			}
			// Algorithm 1, lines 11–12: a mapping that adopted a parent
			// allocation invalidates the δ/gain values of the ready tasks
			// that shared this parent; recompute by re-sorting the rest.
			if rest := ready[head+1:]; claimedPred >= 0 && len(rest) > 1 {
				m.sortReady(rest)
			}
		}
	}
	m.readyBuf = ready

	sched := &Schedule{
		Alloc:     m.alloc,
		Procs:     m.procs,
		Order:     m.order,
		EstStart:  m.start,
		EstFinish: m.finish,
		TotalWork: m.totalWork(),
	}
	m.snapshotCounters(&sched.Counters)
	return sched
}

// snapshotCounters copies the run's counters — estimator memo, evaluation
// counts, alignment solves — into c, once per mapping run after the last
// wave.
func (m *mapper) snapshotCounters(c *obs.Counters) {
	c.MemoProbes = m.est.memoProbes
	c.MemoHits = m.est.memoHits
	c.CandEvals = uint64(m.nEval)
	c.AlignExact = m.alignScratch.NExact
	c.AlignGreedy = m.alignScratch.NGreedy
	c.DedupSkips = uint64(m.nDedup)
}

// growCleared returns a length-n all-false slice, reusing buf's storage
// when it is large enough.
func growCleared(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (m *mapper) totalWork() float64 {
	w := 0.0
	for t := range m.g.Tasks {
		if m.g.Tasks[t].Virtual {
			continue
		}
		if m.hetSpeeds {
			w += m.costs.WorkOn(t, m.alloc[t], m.cl.MinSpeedOf(m.procs[t]))
			continue
		}
		w += m.costs.Work(t, m.alloc[t])
	}
	return w
}

// taskTime returns the execution time of t on a concrete processor set:
// the count-only Amdahl model on uniform clusters, the same model paced
// by the set's slowest member on heterogeneous ones.
func (m *mapper) taskTime(t int, procs []int) float64 {
	if m.hetSpeeds {
		return m.costs.TimeOn(t, len(procs), m.cl.MinSpeedOf(procs))
	}
	return m.costs.Time(t, len(procs))
}

// readySorter adapts a wave's ready list to sort.Stable without per-call
// closures. The two phases of sortReady share it: the primary pass orders
// by (bottom level desc, task ID asc); the secondary pass re-orders groups
// of near-equal bottom level by the strategy key in m.sortKey. sort.Stable
// runs the same stable algorithm as sort.SliceStable, so the resulting
// permutations — and hence the schedules — are unchanged.
type readySorter struct {
	m         *mapper
	list      []int
	secondary bool
}

func (s *readySorter) Len() int      { return len(s.list) }
func (s *readySorter) Swap(i, j int) { s.list[i], s.list[j] = s.list[j], s.list[i] }

func (s *readySorter) Less(i, j int) bool {
	m := s.m
	a, b := s.list[i], s.list[j]
	if !s.secondary {
		if m.bl[a] != m.bl[b] {
			return m.bl[a] > m.bl[b]
		}
		return a < b
	}
	const rel = 1e-12
	ba, bb := m.bl[a], m.bl[b]
	tol := rel * math.Max(math.Abs(ba), math.Abs(bb))
	if math.Abs(ba-bb) > tol {
		return ba > bb
	}
	return m.sortKey[a] < m.sortKey[b]
}

// sortReady orders a wave: primary decreasing bottom level; secondary
// (stable, §III-C) increasing δ(t) for delta, decreasing gain(t) for
// time-cost. Task ID is the final deterministic tie-break.
func (m *mapper) sortReady(ready []int) {
	// Primary sort must itself be stable relative to task IDs.
	m.sorter.list = ready
	m.sorter.secondary = false
	sort.Stable(&m.sorter)
	if m.opts.Strategy == StrategyNone {
		m.sorter.list = nil
		return
	}
	switch m.opts.Strategy {
	case StrategyDelta:
		// increasing δ(t) = min(δ+, −δ−): fewer modifications first.
		for _, t := range ready {
			dPlus, _, dMinus, _ := m.deltas(t)
			v := math.Inf(1)
			if dPlus >= 0 {
				v = float64(dPlus)
			}
			if dMinus <= 0 && -float64(dMinus) < v {
				v = -float64(dMinus)
			}
			m.sortKey[t] = v
		}
	case StrategyTimeCost:
		// decreasing gain(t): larger potential time reduction first.
		for _, t := range ready {
			m.sortKey[t] = -m.gain(t)
		}
	}
	// Stable secondary sort within groups of equal bottom level.
	m.sorter.secondary = true
	sort.Stable(&m.sorter)
	m.sorter.list = nil
}

// inheritablePreds returns the non-virtual predecessors of t whose
// processor sets are still available for adoption: mapped, and not yet
// claimed by another child (one entry per in-edge, like the adjacency).
// The result lives in a mapper-owned scratch buffer, overwritten by the
// next call.
func (m *mapper) inheritablePreds(t int) []int {
	ps := m.predsBuf[:0]
	for _, e := range m.g.In(t) {
		if p := m.g.Edges[e].From; !m.g.Tasks[p].Virtual && len(m.procs[p]) > 0 && !m.claimed[p] {
			ps = append(ps, p)
		}
	}
	m.predsBuf = ps
	return ps
}

// deltas returns δ+ (and the predecessor attaining it) over predecessors
// with Np(pred) ≥ Np(t), and δ− (and its predecessor) over predecessors
// with Np(pred) < Np(t). A missing side is signalled by δ+ = −1 /
// δ− = +1.
func (m *mapper) deltas(t int) (dPlus, predPlus, dMinus, predMinus int) {
	dPlus, predPlus = -1, -1
	dMinus, predMinus = +1, -1
	np := m.alloc[t]
	for _, p := range m.inheritablePreds(t) {
		d := len(m.procs[p]) - np
		if d >= 0 {
			if dPlus < 0 || d < dPlus {
				dPlus, predPlus = d, p
			}
		} else {
			if dMinus > 0 || d > dMinus {
				dMinus, predMinus = d, p
			}
		}
	}
	return
}

// gain returns gain(t) = max over predecessors of
// T(t, Np(t)) − T(t, Np(pred)) (Equation 2).
func (m *mapper) gain(t int) float64 {
	if m.g.Tasks[t].Virtual {
		return 0
	}
	base := m.costs.Time(t, m.alloc[t])
	g := math.Inf(-1)
	for _, p := range m.inheritablePreds(t) {
		if v := base - m.costs.Time(t, len(m.procs[p])); v > g {
			g = v
		}
	}
	if math.IsInf(g, -1) {
		return 0
	}
	return g
}

// placement is a candidate mapping of one task.
type placement struct {
	procs []int
	est   float64 // earliest start time
	eft   float64 // estimated finish time
}

// place decides the processor set of task t (Algorithm 1, lines 8–15) and
// returns the ID of the predecessor whose allocation was adopted, or −1
// when the task was mapped with the baseline procedure.
func (m *mapper) place(t int) int {
	if m.g.Tasks[t].Virtual {
		// Virtual tasks are instantaneous and hold no processors: they
		// start when their last predecessor finishes.
		est := 0.0
		for _, e := range m.g.In(t) {
			if f := m.finish[m.g.Edges[e].From]; f > est {
				est = f
			}
		}
		m.start[t], m.finish[t] = est, est
		return -1
	}
	best, pred, ok := m.strategyPlacement(t)
	if !ok {
		best = m.baselinePlacement(t)
		pred = -1
	}
	if pred >= 0 {
		m.claimed[pred] = true
	}
	m.commit(t, best)
	return pred
}

func (m *mapper) commit(t int, pl placement) {
	m.alloc[t] = len(pl.procs)
	m.procs[t] = pl.procs
	m.start[t] = pl.est
	m.finish[t] = pl.eft
	for _, p := range pl.procs {
		m.avail[p] = pl.eft
	}
	m.reorderAvail(pl.procs, pl.eft)
}

// reorderAvail restores the (availability, ID) invariant of byAvail after
// the processors in procs had their availability set to eft. The untouched
// entries keep their relative order, so removing the touched ones and
// merging them back (as one equal-availability block sorted by ID) repairs
// the order in O(P + k log k) — the full re-sort this replaces cost
// O(P log P) on every candidate placement evaluation, not just per commit.
func (m *mapper) reorderAvail(procs []int, eft float64) {
	touched := append(m.availTouched[:0], procs...)
	sort.Ints(touched)
	m.availTouched = touched
	for _, p := range touched {
		m.touchedMark[p] = true
	}
	kept := m.availKept[:0]
	for _, p := range m.byAvail {
		if !m.touchedMark[p] {
			kept = append(kept, p)
		}
	}
	m.availKept = kept
	out := m.byAvail[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(touched) {
		p, q := kept[i], touched[j]
		if m.avail[p] < eft || (m.avail[p] == eft && p < q) {
			out = append(out, p)
			i++
		} else {
			out = append(out, q)
			j++
		}
	}
	out = append(out, kept[i:]...)
	out = append(out, touched[j:]...)
	m.byAvail = out
	for _, p := range touched {
		m.touchedMark[p] = false
	}
}

// evalOn builds the placement of t on an explicit processor set. During
// one task's evaluation the committed state it reads — avail, finish,
// procs — is immutable (commit happens after the winner is chosen), so a
// placement's value is a pure function of its processor list.
func (m *mapper) evalOn(t int, procs []int) placement {
	m.nEval++
	est := 0.0
	for _, p := range procs {
		if m.avail[p] > est {
			est = m.avail[p]
		}
	}
	for _, e := range m.g.In(t) {
		pred := m.g.Edges[e].From
		rt := 0.0
		if !m.g.Tasks[pred].Virtual {
			// Memoized: the sender set is fixed once pred is mapped, and candidate evaluations revisit the same receiver
			// sets.
			rt = m.est.EdgeRedistTime(e, m.g.Edges[e].Bytes, m.procs[pred], procs)
		}
		if v := m.finish[pred] + rt; v > est {
			est = v
		}
	}
	return placement{procs: procs, est: est, eft: est + m.taskTime(t, procs)}
}

// baselinePlacement is the HCPA mapping: the Np(t) processors that become
// available earliest (ties by processor ID), with the rank order aligned
// to the heaviest predecessor to maximize self-communication.
func (m *mapper) baselinePlacement(t int) placement {
	return m.baselinePlacementDedup(t, nil)
}

// baselinePlacementDedup is baselinePlacement with a candidate dedup
// against an already-evaluated reference placement: the delta EFT guard
// and the time-cost pack comparison both evaluate the baseline right after
// an adoption/stretch candidate, and on graphs where the predecessor's
// processors are exactly the earliest-available set the two candidates
// coincide — same ordered processor list, hence (evalOn being a pure
// function of the list and the committed state) the same est/eft. Skipping
// the duplicate walk halves the evaluation cost of those tasks.
//
// The availability order is read straight from m.byAvail, which commit
// keeps sorted; alignToHeaviestPred copies its input, so no candidate ever
// aliases the maintained ordering.
func (m *mapper) baselinePlacementDedup(t int, ref *placement) placement {
	k := m.alloc[t]
	if k > m.cl.P {
		k = m.cl.P
	}
	cand := m.alignToHeaviestPred(t, m.byAvail[:k])
	if ref != nil && !m.opts.disableDedup && equalInts(cand, ref.procs) {
		m.nDedup++
		return placement{procs: cand, est: ref.est, eft: ref.eft}
	}
	return m.evalOn(t, cand)
}

// equalInts reports whether a and b hold the same values in the same
// order. Rank order matters: two placements on the same set in different
// orders redistribute differently.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// alignToHeaviestPred permutes the rank order of a processor set to
// maximize self-communication with the predecessor contributing the most
// bytes (§II-A). The set itself is unchanged; the returned copy lives in
// a pooled candidate buffer (see getBuf).
func (m *mapper) alignToHeaviestPred(t int, procs []int) []int {
	var heavy int = -1
	var bytes float64
	for _, e := range m.g.In(t) {
		pred := m.g.Edges[e].From
		if m.g.Tasks[pred].Virtual || len(m.procs[pred]) == 0 {
			continue
		}
		if m.g.Edges[e].Bytes > bytes {
			bytes = m.g.Edges[e].Bytes
			heavy = pred
		}
	}
	if heavy < 0 || bytes == 0 {
		return append(m.getBuf(), procs...)
	}
	if m.opts.exactAlign {
		return redist.AlignReceiversExact(m.getBuf(), bytes, m.procs[heavy], procs, &m.alignScratch)
	}
	return redist.AlignReceiversScratch(m.getBuf(), bytes, m.procs[heavy], procs, &m.alignScratch)
}
