package sim

import (
	"fmt"
	"math"

	"repro/internal/flownet"
	"repro/internal/obs"
)

// completionEps is the residual byte count below which a fluid flow is
// considered drained. All transfers in this repository are ≥ kilobytes, so
// a micro-byte tolerance is safely below any meaningful volume.
const completionEps = 1e-6

// Engine is the discrete-event core: a virtual clock, a timer queue and a
// set of active fluid flows whose rates are re-solved whenever the flow
// population changes, by the flow pool selected at construction.
//
// The zero value is not usable; create engines with New. Engines are not
// safe for concurrent use (simulations are single-threaded; parallelism in
// the experiment harness is across independent engines).
type Engine struct {
	now       float64
	timers    timerHeap
	seq       int64
	pool      flowPool
	batchPool []*flowBatch // recycled StartFlowBatch carriers

	// Flow-batch counters (plain stores; the engine is single-threaded).
	nBatches    uint64
	nBatchFlows uint64
}

// flowPool owns the in-flight fluid flows: their rates, their residual
// volumes, and the completion bookkeeping. The Engine drives it through
// this interface so the incremental flownet pool and the reference
// from-scratch max-min pool replay identically structured event loops.
type flowPool interface {
	start(links []int, rateCap, bytes float64, done func())
	count() int
	dirty() bool
	recompute()
	// popDrained completes every drained flow at time now, firing their
	// callbacks in arrival order after the pool's own bookkeeping is
	// consistent (callbacks may start new flows). Reports whether any
	// flow completed.
	popDrained(now float64) bool
	// next returns the absolute time of the earliest flow completion
	// after now (+Inf when no flow is draining).
	next(now float64) float64
	advance(dt float64)
	// stats adds the pool's solver counters into c.
	stats(c *obs.Counters)
}

type timer struct {
	at  float64
	seq int64 // FIFO tie-break for simultaneous timers
	fn  func()
}

// timerHeap is a concrete binary min-heap by (at, seq): container/heap
// would box every timer through interface{} on push and pop, one
// allocation each, which at big-cluster replay scales is a third of the
// replay's allocation volume.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *timerHeap) pop() timer {
	hh := *h
	top := hh[0]
	last := len(hh) - 1
	hh[0] = hh[last]
	*h = hh[:last]
	hh = hh[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(hh) {
			break
		}
		if r := c + 1; r < len(hh) && hh.less(r, c) {
			c = r
		}
		if !hh.less(c, i) {
			break
		}
		hh[i], hh[c] = hh[c], hh[i]
		i = c
	}
	return top
}

// New creates an engine over links with the given capacities (bytes/s),
// backed by the incremental internal/flownet solver: route aggregation
// into weighted super-flows, bottleneck-level repair across population
// changes, lazy draining. It is the only production replay engine.
func New(linkCaps []float64) *Engine {
	return &Engine{pool: &netPool{net: flownet.New(linkCaps)}}
}

// NewReference creates an engine backed by the reference pool: one record
// per flow, max-min rates re-solved from scratch by MaxMin on every
// population change. It is a test oracle — the engine New's flownet pool
// is verified against — and only tests and benchmarks may call it.
func NewReference(linkCaps []float64) *Engine {
	return &Engine{pool: &maxminPool{linkCaps: linkCaps}}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t (clamped to now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.timers.push(timer{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// StartFlow begins a transfer of bytes over the given links after an
// initial latency, invoking done at completion.
//
// Self-flows (no links) and empty transfers complete after the latency
// alone — this implements the paper's free intra-node copies and zero-byte
// virtual edges. rateCap, if positive, bounds the flow's rate (β').
func (e *Engine) StartFlow(links []int, rateCap, latency, bytes float64, done func()) {
	if len(links) == 0 || bytes <= completionEps {
		e.After(latency, done)
		return
	}
	e.After(latency, func() { e.pool.start(links, rateCap, bytes, done) })
}

// FlowSpec describes one transfer of a StartFlowBatch call: the route, the
// per-flow rate cap (β', if positive) and the volume. A spec with no links
// or a negligible volume completes at batch fire time, mirroring
// StartFlow's self-flow and zero-byte rules.
type FlowSpec struct {
	Links   []int
	RateCap float64
	Bytes   float64
}

// StartFlowBatch begins a group of transfers that share one latency and one
// completion callback, invoked once per spec — exactly equivalent to
// len(specs) consecutive StartFlow calls with the same latency and done,
// including the order in which the flows enter the rate solver and the
// order in which simultaneous completions fire. The batch costs a single
// timer and no per-flow closures, where the equivalent StartFlow sequence
// pays one captured closure per wire flow; at replay scale that closure is
// the last per-flow allocation. The specs slice is copied: callers may
// reuse it immediately.
func (e *Engine) StartFlowBatch(latency float64, specs []FlowSpec, done func()) {
	if len(specs) == 0 {
		return
	}
	e.nBatches++
	e.nBatchFlows += uint64(len(specs))
	var b *flowBatch
	if k := len(e.batchPool); k > 0 {
		b = e.batchPool[k-1]
		e.batchPool = e.batchPool[:k-1]
	} else {
		b = &flowBatch{e: e}
		b.fire = b.run
	}
	b.specs = append(b.specs[:0], specs...)
	b.done = done
	e.After(latency, b.fire)
}

// flowBatch carries one StartFlowBatch call from registration to its fire
// time. The fire closure is bound once per pool entry, so a recycled batch
// reaches the timer heap without allocating.
type flowBatch struct {
	e     *Engine
	specs []FlowSpec
	done  func()
	fire  func()
}

func (b *flowBatch) run() {
	e, done := b.e, b.done
	for i := range b.specs {
		s := &b.specs[i]
		if len(s.Links) == 0 || s.Bytes <= completionEps {
			// Inline completion keeps the spec's position in the batch: a
			// StartFlow sequence would fire this done between the
			// neighboring flow starts via its own same-time timer.
			done()
		} else {
			e.pool.start(s.Links, s.RateCap, s.Bytes, done)
		}
		s.Links = nil // don't pin the caller's route arena past the start
	}
	b.specs = b.specs[:0]
	b.done = nil
	e.batchPool = append(e.batchPool, b)
}

// ActiveFlows returns the number of in-flight fluid flows (post-latency).
func (e *Engine) ActiveFlows() int { return e.pool.count() }

// Counters snapshots the engine's replay counters: flow-batch sizes plus
// the rate solver's regime counts (the flownet pool reports full /
// incremental / scratch solves and level-log events; the reference
// max-min pool reports every recompute as a full solve).
func (e *Engine) Counters() obs.Counters {
	var c obs.Counters
	c.FlowBatches = e.nBatches
	c.FlowBatchFlows = e.nBatchFlows
	e.pool.stats(&c)
	return c
}

// Run advances the simulation until no events remain. It returns the final
// virtual time. Run panics if the simulation cannot make progress (a flow
// with zero rate and no other event), which would indicate a zero-capacity
// link in the platform description.
func (e *Engine) Run() float64 {
	for {
		if e.pool.dirty() {
			e.pool.recompute()
		}
		// Complete drained flows first. A flow also counts as drained when
		// its residual volume cannot advance the clock by even one ULP
		// (now + remaining/rate == now): letting such residues linger
		// would livelock the loop below.
		if e.pool.popDrained(e.now) {
			continue
		}
		// Next flow completion and next timer.
		tFlow := e.pool.next(e.now)
		tTimer := math.Inf(1)
		if len(e.timers) > 0 {
			tTimer = e.timers[0].at
		}
		t := math.Min(tFlow, tTimer)
		if math.IsInf(t, 1) {
			if e.pool.count() > 0 {
				panic(fmt.Sprintf("sim: %d flows stalled with zero rate at t=%g", e.pool.count(), e.now))
			}
			return e.now
		}
		// Drain flows up to t; completions are handled at the top of the
		// next iteration.
		if t > e.now {
			e.pool.advance(t - e.now)
			e.now = t
		}
		// Fire due timers.
		for len(e.timers) > 0 && e.timers[0].at <= e.now {
			it := e.timers.pop()
			it.fn()
		}
	}
}

// netPool backs the engine with the incremental flownet subsystem. Flow
// volumes, rates and completion order live in the Net; the pool only maps
// flownet member ids back to completion callbacks.
type netPool struct {
	net    *flownet.Net
	done   []func() // indexed by flownet member id (ids are recycled)
	firing []func() // scratch: callbacks of the current completion batch
}

func (p *netPool) start(links []int, rateCap, bytes float64, done func()) {
	id := p.net.Start(links, rateCap, bytes)
	for id >= len(p.done) {
		p.done = append(p.done, nil)
	}
	p.done[id] = done
}

func (p *netPool) count() int { return p.net.Flows() }
func (p *netPool) stats(c *obs.Counters) {
	c.SolvesFull += uint64(p.net.FullSolves())
	c.SolvesIncremental += uint64(p.net.IncrementalSolves())
	c.SolvesScratch += uint64(p.net.ScratchSolves())
	c.CkRestores += uint64(p.net.CheckpointRestores())
	c.OrphanLevels += uint64(p.net.OrphanedLevels())
}
func (p *netPool) dirty() bool              { return p.net.Dirty() }
func (p *netPool) recompute()               { p.net.Solve() }
func (p *netPool) advance(dt float64)       { p.net.Advance(dt) }
func (p *netPool) next(now float64) float64 { return p.net.NextDeadline(now) }

func (p *netPool) popDrained(now float64) bool {
	p.firing = p.firing[:0]
	completed := p.net.PopDrained(now, completionEps, func(id int) {
		p.firing = append(p.firing, p.done[id])
		p.done[id] = nil
	})
	if !completed {
		return false
	}
	for i, fn := range p.firing {
		p.firing[i] = nil
		if fn != nil {
			fn()
		}
	}
	return true
}

// maxminPool is the reference pool: one record per flow, rates re-solved
// from scratch by MaxMin on every population change.
type maxminPool struct {
	linkCaps []float64
	flows    []*flow
	stale    bool // flow set changed; rates must be recomputed
	solves   uint64

	// Scratch buffers reused across rate recomputations.
	solver     maxMinSolver
	scratchLnk [][]int
	scratchCap []float64
	firing     []*flow
}

type flow struct {
	links     []int
	rateCap   float64
	remaining float64
	rate      float64
	done      func()
}

func (p *maxminPool) start(links []int, rateCap, bytes float64, done func()) {
	p.flows = append(p.flows, &flow{
		links: links, rateCap: rateCap, remaining: bytes, done: done,
	})
	p.stale = true
}

func (p *maxminPool) count() int { return len(p.flows) }

func (p *maxminPool) dirty() bool { return p.stale }

func (p *maxminPool) stats(c *obs.Counters) { c.SolvesFull += p.solves }

// recompute re-solves the max-min rate allocation from scratch.
func (p *maxminPool) recompute() {
	p.solves++
	n := len(p.flows)
	if cap(p.scratchLnk) < n {
		p.scratchLnk = make([][]int, n)
		p.scratchCap = make([]float64, n)
	}
	flowLinks := p.scratchLnk[:n]
	flowCaps := p.scratchCap[:n]
	for i, f := range p.flows {
		flowLinks[i] = f.links
		flowCaps[i] = f.rateCap
	}
	rates := p.solver.Solve(p.linkCaps, flowLinks, flowCaps)
	// Release the link-slice references once solved: as the flow population
	// shrinks, slots past the next n would otherwise pin completed flows'
	// link slices for the rest of a long simulation.
	for i := range flowLinks {
		flowLinks[i] = nil
	}
	for i, f := range p.flows {
		f.rate = rates[i]
	}
	p.stale = false
}

func (p *maxminPool) popDrained(now float64) bool {
	kept := p.flows[:0]
	p.firing = p.firing[:0]
	for _, f := range p.flows {
		drained := f.remaining <= completionEps ||
			(f.rate > 0 && now+f.remaining/f.rate <= now)
		if drained {
			p.firing = append(p.firing, f)
		} else {
			kept = append(kept, f)
		}
	}
	if len(p.firing) == 0 {
		return false
	}
	p.flows = kept
	p.stale = true
	for i, f := range p.firing {
		p.firing[i] = nil
		if f.done != nil {
			f.done()
		}
	}
	return true
}

func (p *maxminPool) next(now float64) float64 {
	t := math.Inf(1)
	for _, f := range p.flows {
		if f.rate <= 0 {
			continue
		}
		if tt := now + f.remaining/f.rate; tt < t {
			t = tt
		}
	}
	return t
}

func (p *maxminPool) advance(dt float64) {
	for _, f := range p.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}
