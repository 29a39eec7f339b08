// Package sim is a flow-level (fluid) discrete-event simulator of cluster
// networks, substituting for the SimGrid toolkit the paper uses (§IV).
//
// The model is the one §IV-A describes: each network link has a latency λ
// and a bandwidth β; concurrent flows share link bandwidth according to
// max-min fairness (progressive filling); and each flow's rate is further
// capped by the empirical TCP-window bandwidth β' = min(β, Wmax/RTT). A
// transfer of S bytes therefore completes after its one-way route latency
// plus the fluid time needed to drain S bytes at the (time-varying)
// max-min rate.
//
// Computations do not share resources (one task per processor, enforced by
// the replay layer), so they are plain timers.
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
// set of active fluid flows held by a Network, which re-solves their rates
// whenever the flow population changes.
//
// The zero value is not usable; create engines with New. Engines are not
// safe for concurrent use (simulations are single-threaded; parallelism in
// the experiment harness is across independent engines).
type Engine struct {
	now    float64
	timers timerHeap
	seq    int64
	net    Network
	done   []func() // completion callbacks by network flow id (ids are recycled)
	firing []func() // scratch: callbacks of the current completion batch
	// collect is collectDone bound once: a method value handed through
	// the Network interface escapes, so binding it per pop would allocate.
	collect   func(id int)
	batchPool []*flowBatch // recycled StartFlowBatch carriers

	// Flow-batch counters (plain stores; the engine is single-threaded).
	nBatches    uint64
	nBatchFlows uint64
}

// Network owns the in-flight fluid flows: their rates, their residual
// volumes and their completion order. It is *flownet.Net's method set;
// the Engine maps flow ids back to completion callbacks.
type Network interface {
	// Start adds a flow of volume bytes over links (rateCap, if positive,
	// bounds its rate) and returns an id, valid until the flow completes.
	Start(links []int, rateCap, volume float64) int
	Flows() int
	// Dirty reports whether the population changed since the last Solve.
	Dirty() bool
	Solve()
	// PopDrained completes every flow drained at time now (residue at most
	// eps, or too small to advance the clock by one ULP) and yields their
	// ids in arrival order. It reports whether any flow completed.
	PopDrained(now, eps float64, yield func(id int)) bool
	// NextDeadline returns the absolute time of the earliest flow
	// completion after now (+Inf when no flow is draining).
	NextDeadline(now float64) float64
	Advance(dt float64)
	// AddCounters adds the network's solver counters into c.
	AddCounters(c *obs.Counters)
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
func New(linkCaps []float64) *Engine { return NewOn(flownet.New(linkCaps)) }

// NewOn creates an engine over the given network. It is the seam through
// which tests replay on the reference max-min network.
func NewOn(net Network) *Engine {
	e := &Engine{net: net}
	e.collect = e.collectDone
	return e
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

// start hands one flow to the network and files its completion callback.
func (e *Engine) start(links []int, rateCap, bytes float64, done func()) {
	id := e.net.Start(links, rateCap, bytes)
	for id >= len(e.done) {
		e.done = append(e.done, nil)
	}
	e.done[id] = done
}

// popDrained completes every drained flow at time now, firing their
// callbacks in arrival order once the network's own bookkeeping is
// consistent (callbacks may start new flows). It reports whether any flow
// completed.
func (e *Engine) popDrained() bool {
	e.firing = e.firing[:0]
	if !e.net.PopDrained(e.now, completionEps, e.collect) {
		return false
	}
	for i, fn := range e.firing {
		e.firing[i] = nil
		if fn != nil {
			fn()
		}
	}
	return true
}

// collectDone moves a completed flow's callback into the firing batch.
func (e *Engine) collectDone(id int) {
	e.firing = append(e.firing, e.done[id])
	e.done[id] = nil
}

// FlowSpec describes one transfer of a StartFlowBatch call: the route, the
// per-flow rate cap (β', if positive) and the volume. A spec with no links
// or a negligible volume completes at batch fire time: this implements the
// paper's free intra-node copies and zero-byte virtual edges.
type FlowSpec struct {
	Links   []int
	RateCap float64
	Bytes   float64
}

// StartFlowBatch begins a group of transfers that share one latency and one
// completion callback, invoked once per spec. The flows enter the network
// in spec order when the latency has elapsed, and simultaneous completions
// fire in that order — exactly as len(specs) one-flow timers with the same
// latency and done would, which the tests' single-flow StartFlow pins.
// The batch costs a single timer and no per-flow closures; at replay scale
// a per-flow closure would be the last per-flow allocation. The specs
// slice is copied: callers may reuse it immediately.
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
			// one-flow timer would fire this done between the neighboring
			// flow starts.
			done()
		} else {
			e.start(s.Links, s.RateCap, s.Bytes, done)
		}
		s.Links = nil // don't pin the caller's route arena past the start
	}
	b.specs = b.specs[:0]
	b.done = nil
	e.batchPool = append(e.batchPool, b)
}

// Counters snapshots the engine's replay counters: flow-batch sizes plus
// the network's regime counts (flownet reports full / incremental /
// scratch solves and level-log events).
func (e *Engine) Counters() obs.Counters {
	var c obs.Counters
	c.FlowBatches = e.nBatches
	c.FlowBatchFlows = e.nBatchFlows
	e.net.AddCounters(&c)
	return c
}

// Run advances the simulation until no events remain. It returns the final
// virtual time. Run panics if the simulation cannot make progress (a flow
// with zero rate and no other event), which would indicate a zero-capacity
// link in the platform description.
func (e *Engine) Run() float64 {
	for {
		if e.net.Dirty() {
			e.net.Solve()
		}
		// Complete drained flows first. A flow also counts as drained when
		// its residual volume cannot advance the clock by even one ULP
		// (now + remaining/rate == now): letting such residues linger
		// would livelock the loop below.
		if e.popDrained() {
			continue
		}
		// Next flow completion and next timer.
		tFlow := e.net.NextDeadline(e.now)
		tTimer := math.Inf(1)
		if len(e.timers) > 0 {
			tTimer = e.timers[0].at
		}
		t := math.Min(tFlow, tTimer)
		if math.IsInf(t, 1) {
			if e.net.Flows() > 0 {
				panic(fmt.Sprintf("sim: %d flows stalled with zero rate at t=%g", e.net.Flows(), e.now))
			}
			return e.now
		}
		// Drain flows up to t; completions are handled at the top of the
		// next iteration.
		if t > e.now {
			e.net.Advance(t - e.now)
			e.now = t
		}
		// Fire due timers.
		for len(e.timers) > 0 && e.timers[0].at <= e.now {
			it := e.timers.pop()
			it.fn()
		}
	}
}
