// Package simdag replays a static schedule on a simulated cluster and
// measures its actual makespan under network contention.
//
// This is the evaluation half of the paper's methodology (§IV): the
// scheduling algorithms decide *where* and *in which order* tasks run,
// using contention-free estimates; the replay then executes the schedule
// in a flow-level (fluid) discrete-event simulation of the cluster
// network, substituting for the SimGrid toolkit the paper uses. Every
// redistribution becomes a set of point-to-point flows, so start dates
// shift whenever redistributions contend, exactly the effect RATS is
// designed to mitigate.
//
// The network model is the one §IV-A describes: each link has a latency λ
// and a bandwidth β; concurrent flows share link bandwidth under max-min
// fairness (progressive filling, solved incrementally by internal/flownet);
// and each flow's rate is further capped by the empirical TCP-window
// bandwidth β' = min(β, Wmax/RTT). A transfer of S bytes therefore
// completes after its one-way route latency plus the fluid time needed to
// drain S bytes at its (time-varying) max-min rate. Computations do not
// share resources (one task per processor), so a task is a plain event at
// its finish time.
//
// Replay semantics:
//
//   - Each processor executes its tasks in schedule (mapping) order.
//   - A task starts once (a) it is at the head of the queue of every
//     processor of its set, and (b) the redistribution of every in-edge
//     has completed.
//   - The redistribution of an edge starts as soon as the producer task
//     finishes (communication overlaps unrelated computation: it occupies
//     NICs and links, not CPUs).
//   - Intra-node flows and zero-byte (virtual) edges complete instantly.
//
// Because tasks are mapped in a precedence-compatible total order, the
// per-processor FIFO discipline cannot deadlock.
package simdag

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/flownet"
	"repro/internal/heapq"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redist"
)

// completionEps is the residual byte count below which a fluid flow is
// considered drained. All transfers in this repository are ≥ kilobytes, so
// a micro-byte tolerance is safely below any meaningful volume.
const completionEps = 1e-6

// Network owns the in-flight fluid flows: their rates, their residual
// volumes and their completion order. It is *flownet.Net's method set; the
// replay maps flow ids back to their edges. Tests replay on the reference
// max-min network (oracle.MaxMinNet) through it.
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

// Result reports the outcome of one replay.
type Result struct {
	Start    []float64 // actual start time of each task
	Finish   []float64 // actual finish time of each task
	Makespan float64   // finish time of the exit task

	RemoteBytes float64 // bytes that crossed the network
	LocalBytes  float64 // bytes kept on-node by redistributions
	FlowCount   int     // point-to-point wire flows simulated
	EdgeFinish  []float64

	// Counters snapshots the replay's observability counters: flow-batch
	// sizes and the rate solver's regime counts.
	Counters obs.Counters
}

// Execute replays schedule s of graph g on cluster cl and returns the
// measured times. It returns an error if the schedule is structurally
// invalid or the replay fails to complete every task (which would indicate
// a scheduling bug or a broken platform rather than a property of the
// workload).
func Execute(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	return ExecuteOn(flownet.New(cl.LinkCapacities()), g, costs, cl, s)
}

// ExecuteOn is Execute over a given network, which must be fresh and built
// over cl's link capacities. It is the seam through which tests replay on
// the reference max-min network.
func ExecuteOn(net Network, g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	if err := s.Validate(g, cl); err != nil {
		return nil, err
	}
	return newReplay(net, g, costs, cl, s).execute()
}

// execute runs the replay from time zero and assembles its result.
func (rp *replay) execute() (*Result, error) {
	res, n := rp.res, rp.g.N()
	// Seed: any task with no in-edges can start (typically the entry).
	for t := 0; t < n; t++ {
		if rp.edgesLeft[t] == 0 {
			rp.tryStart(t)
		}
	}
	if err := rp.run(); err != nil {
		return nil, err
	}
	// Flow-batch sizes plus the network's regime counts (flownet reports
	// full / incremental / scratch solves and level-log events).
	res.Counters.FlowBatches = rp.nBatches
	res.Counters.FlowBatchFlows = rp.nBatchFlows
	rp.net.AddCounters(&res.Counters)
	if rp.nFinished != n {
		return nil, fmt.Errorf("simdag: replay stalled with %d/%d tasks finished", rp.nFinished, n)
	}
	for t := 0; t < n; t++ {
		if res.Finish[t] > res.Makespan {
			res.Makespan = res.Finish[t]
		}
	}
	return res, nil
}

// replay is the state of one schedule replay: the schedule's per-processor
// queues, a virtual clock, one typed event heap and the fluid network.
// Events carry task and edge indices, not callbacks, so the replay builds
// no closure per task, per flow or per event.
type replay struct {
	g     *dag.Graph
	costs *moldable.Costs
	cl    *platform.Cluster
	s     *core.Schedule
	res   *Result
	net   Network

	now    float64
	events heapq.Heap[event] // keyed (time, seq): FIFO on simultaneous events
	seq    int64

	queues    [][]int // per-processor task queues in mapping order
	cursor    []int
	edgesLeft []int // by task: in-edges not yet redistributed
	started   []bool
	nFinished int

	// Wire flows: the batches waiting for their latency (flows, emptied
	// whenever no batch is left in the heap), the edge of each network
	// flow id (ids are recycled), each edge's count of flows still in
	// flight, and the edges of the current completion batch.
	flows    []flowSpec
	nWaiting int // flow batches in the event heap
	flowEdge []int32
	pending  []int32
	firing   []int32
	// collect is collectDone bound once: a method value handed through
	// the Network interface escapes, so binding it per pop would allocate.
	collect func(id int)

	slab []platform.LinkID // route arena: flows slice one chunked backing array

	// Scratch for startRedist, reused across edges: the edge's wire
	// flows, their latencies (parallel slice) and the distinct latencies
	// in first-appearance order.
	specBuf []flowSpec
	latBuf  []float64
	lats    []float64

	nBatches, nBatchFlows uint64 // flow-batch counters
}

// event is the payload of one replay event: the finish of task, or, with
// task < 0, the start of edge's flow batch flows[lo:hi].
type event struct {
	task, edge int32
	lo, hi     int32
}

// flowSpec is one wire flow: its route, its rate cap β' and its volume.
type flowSpec struct {
	links   []int
	rateCap float64
	bytes   float64
}

func newReplay(net Network, g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) *replay {
	n := g.N()
	rp := &replay{
		g: g, costs: costs, cl: cl, s: s, net: net,
		res: &Result{
			Start:      make([]float64, n),
			Finish:     make([]float64, n),
			EdgeFinish: make([]float64, len(g.Edges)),
		},
		queues:    make([][]int, cl.P),
		cursor:    make([]int, cl.P),
		edgesLeft: make([]int, n),
		started:   make([]bool, n),
		pending:   make([]int32, len(g.Edges)),
	}
	rp.collect = rp.collectDone
	// Per-processor task queues in mapping order.
	for _, t := range s.Order {
		for _, p := range s.Procs[t] {
			rp.queues[p] = append(rp.queues[p], t)
		}
	}
	for t := 0; t < n; t++ {
		rp.edgesLeft[t] = len(g.In(t))
	}
	return rp
}

// after schedules ev d seconds from now (never in the past). Every push
// takes the next seq, so simultaneous events fire in push order.
func (rp *replay) after(d float64, ev event) {
	t := rp.now + d
	if t < rp.now {
		t = rp.now
	}
	rp.seq++
	rp.events.Push(t, rp.seq, ev)
}

// run advances the replay until no event remains and returns an error if
// it cannot make progress: a flow with zero rate and no other event, which
// indicates a zero-capacity link in the platform description.
func (rp *replay) run() error {
	net := rp.net
	for {
		if net.Dirty() {
			net.Solve()
		}
		// Complete drained flows first. A flow also counts as drained when
		// its residual volume cannot advance the clock by even one ULP
		// (now + remaining/rate == now): letting such residues linger
		// would livelock the loop below.
		if rp.popDrained() {
			continue
		}
		// Next flow completion and next event.
		tFlow := net.NextDeadline(rp.now)
		tEvent := math.Inf(1)
		if rp.events.Len() > 0 {
			tEvent = rp.events.At(0).K
		}
		t := math.Min(tFlow, tEvent)
		if math.IsInf(t, 1) {
			if net.Flows() > 0 {
				return fmt.Errorf("simdag: %d flows stalled with zero rate at t=%g", net.Flows(), rp.now)
			}
			return nil
		}
		// Drain flows up to t; completions are handled at the top of the
		// next iteration.
		if t > rp.now {
			net.Advance(t - rp.now)
			rp.now = t
		}
		// Fire due events.
		for rp.events.Len() > 0 && rp.events.At(0).K <= rp.now {
			if ev := rp.events.Pop().V; ev.task >= 0 {
				rp.onFinish(int(ev.task))
			} else {
				rp.startBatch(ev)
			}
		}
	}
}

// popDrained completes every drained flow at time now, counting each
// toward its edge in arrival order once the network's own bookkeeping is
// consistent. It reports whether any flow completed.
func (rp *replay) popDrained() bool {
	rp.firing = rp.firing[:0]
	if !rp.net.PopDrained(rp.now, completionEps, rp.collect) {
		return false
	}
	for _, eid := range rp.firing {
		rp.flowDone(eid)
	}
	return true
}

// collectDone files a completed flow's edge into the firing batch.
func (rp *replay) collectDone(id int) { rp.firing = append(rp.firing, rp.flowEdge[id]) }

// startBatch hands a batch's flows to the network in order. A flow with
// no links or a negligible volume completes on the spot, at its position
// in the batch.
func (rp *replay) startBatch(ev event) {
	for i := ev.lo; i < ev.hi; i++ {
		f := &rp.flows[i]
		if len(f.links) == 0 || f.bytes <= completionEps {
			rp.flowDone(ev.edge)
		} else {
			id := rp.net.Start(f.links, f.rateCap, f.bytes)
			for id >= len(rp.flowEdge) {
				rp.flowEdge = append(rp.flowEdge, 0)
			}
			rp.flowEdge[id] = ev.edge
		}
		f.links = nil // don't pin the route arena past the start
	}
	// Completions only start tasks, never flows, so no batch was added
	// while this one ran; with none left waiting the arena empties.
	if rp.nWaiting--; rp.nWaiting == 0 {
		rp.flows = rp.flows[:0]
	}
}

// flowDone counts one completed wire flow of edge eid; the last one
// completes the edge.
func (rp *replay) flowDone(eid int32) {
	if rp.pending[eid]--; rp.pending[eid] == 0 {
		rp.edgeDone(rp.g.Edges[eid])
	}
}

// edgeDone records edge e's redistribution as complete now and tries to
// start its consumer.
func (rp *replay) edgeDone(e dag.Edge) {
	rp.res.EdgeFinish[e.ID] = rp.now
	rp.edgesLeft[e.To]--
	rp.tryStart(e.To)
}

// route returns a private route slice carved out of the replay's arena:
// one backing-array allocation per routeChunk links instead of one per
// flow. The sub-slices stay valid for the flows' whole lives (growing the
// arena swaps in a fresh chunk; old chunks are kept alive by their flows).
func (rp *replay) route(src, dst int) ([]platform.LinkID, float64) {
	const routeChunk = 1024
	if cap(rp.slab)-len(rp.slab) < 4 {
		rp.slab = make([]platform.LinkID, 0, routeChunk)
	}
	base := len(rp.slab)
	links, lat := rp.cl.AppendRoute(rp.slab, src, dst)
	rp.slab = links
	return links[base:len(links):len(links)], lat
}

func (rp *replay) atHead(t int) bool {
	for _, p := range rp.s.Procs[t] {
		q := rp.queues[p]
		if rp.cursor[p] >= len(q) || q[rp.cursor[p]] != t {
			return false
		}
	}
	return true
}

// startRedist expands one edge into wire flows. The banded block matrix is
// traversed directly (twice: once to count and account local bytes, once to
// start the flows) — with a validated schedule the processor lists are
// duplicate-free, so the (sender, receiver) pairs are distinct and the
// flow-merging map the old redist.Flows expansion carried was a no-op.
func (rp *replay) startRedist(e dag.Edge) {
	g, s, res := rp.g, rp.s, rp.res
	to := e.To
	if e.Bytes <= 0 || g.Tasks[e.From].Virtual || g.Tasks[to].Virtual ||
		len(s.Procs[e.From]) == 0 || len(s.Procs[to]) == 0 {
		rp.edgeDone(e)
		return
	}
	senders, receivers := s.Procs[e.From], s.Procs[to]
	pending := 0
	local := 0.0
	redist.VisitBlocks(e.Bytes, len(senders), len(receivers), func(i, j int, v float64) {
		if senders[i] == receivers[j] {
			local += v
		} else {
			pending++
		}
	})
	res.LocalBytes += local
	if pending == 0 {
		rp.edgeDone(e)
		return
	}
	rp.pending[e.ID] = int32(pending)
	// Collect the edge's wire flows, then launch them as one batch per
	// distinct route latency: one event each instead of one per flow. All
	// of an edge's flows are registered here, inside one event, so
	// per-flow events would have been consecutive; grouping by exact
	// latency in first-appearance order therefore preserves the relative
	// order of the flow starts at every fire time, and with it the rate
	// solver's member order and completion tie-breaks.
	rp.specBuf, rp.latBuf, rp.lats = rp.specBuf[:0], rp.latBuf[:0], rp.lats[:0]
	redist.VisitBlocks(e.Bytes, len(senders), len(receivers), func(i, j int, v float64) {
		src, dst := senders[i], receivers[j]
		if src == dst {
			return
		}
		links, lat := rp.route(src, dst)
		res.RemoteBytes += v
		res.FlowCount++
		rp.specBuf = append(rp.specBuf, flowSpec{
			links: links, rateCap: rp.cl.EffectiveBandwidth(src, dst), bytes: v,
		})
		rp.latBuf = append(rp.latBuf, lat)
		for _, l := range rp.lats {
			if l == lat {
				return
			}
		}
		rp.lats = append(rp.lats, lat)
	})
	rp.launch(int32(e.ID))
}

// launch pushes the wire flows collected in specBuf (latencies in latBuf,
// distinct ones in lats) as one flow batch of edge eid per distinct
// latency.
func (rp *replay) launch(eid int32) {
	for _, l := range rp.lats {
		lo := int32(len(rp.flows))
		for k, lat := range rp.latBuf {
			if lat == l {
				rp.flows = append(rp.flows, rp.specBuf[k])
			}
		}
		hi := int32(len(rp.flows))
		rp.nBatches++
		rp.nBatchFlows += uint64(hi - lo)
		rp.nWaiting++
		rp.after(l, event{task: -1, edge: eid, lo: lo, hi: hi})
	}
	// Drop the scratch's route references: the batches hold their own
	// copies, and lingering ones would pin retired arena chunks.
	clear(rp.specBuf)
}

func (rp *replay) onFinish(t int) {
	rp.res.Finish[t] = rp.now
	rp.nFinished++
	for _, p := range rp.s.Procs[t] {
		rp.cursor[p]++
		if rp.cursor[p] < len(rp.queues[p]) {
			rp.tryStart(rp.queues[p][rp.cursor[p]])
		}
	}
	for _, eid := range rp.g.Out(t) {
		rp.startRedist(rp.g.Edges[eid])
	}
}

func (rp *replay) tryStart(t int) {
	if rp.started[t] || rp.edgesLeft[t] > 0 || !rp.atHead(t) {
		return
	}
	rp.started[t] = true
	rp.res.Start[t] = rp.now
	dur := 0.0
	if !rp.g.Tasks[t].Virtual {
		if rp.cl.HeteroSpeeds() {
			// Data-parallel steps advance at the pace of the slowest
			// member of the assigned set — same rule the mapper's finish
			// estimates use, so estimate and replay agree on durations.
			dur = rp.costs.TimeOn(t, len(rp.s.Procs[t]), rp.cl.MinSpeedOf(rp.s.Procs[t]))
		} else {
			dur = rp.costs.Time(t, len(rp.s.Procs[t]))
		}
	}
	rp.after(dur, event{task: int32(t), edge: -1})
}

// Gantt renders a plain-text Gantt chart of a replay (one line per
// processor), for the CLI and the examples. Width is the number of
// character cells used for the makespan.
func Gantt(g *dag.Graph, s *core.Schedule, r *Result, width int) string {
	if width <= 0 {
		width = 80
	}
	if r.Makespan <= 0 {
		return "(empty schedule)\n"
	}
	// Build per-proc rows.
	nProcs := 0
	for _, ps := range s.Procs {
		for _, p := range ps {
			if p+1 > nProcs {
				nProcs = p + 1
			}
		}
	}
	rows := make([][]byte, nProcs)
	for i := range rows {
		rows[i] = make([]byte, width)
		for j := range rows[i] {
			rows[i][j] = '.'
		}
	}
	glyph := func(t int) byte {
		const alpha = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
		return alpha[t%len(alpha)]
	}
	for t := range g.Tasks {
		if g.Tasks[t].Virtual {
			continue
		}
		lo := int(r.Start[t] / r.Makespan * float64(width))
		hi := int(r.Finish[t] / r.Makespan * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for _, p := range s.Procs[t] {
			for x := lo; x < hi; x++ {
				rows[p][x] = glyph(t)
			}
		}
	}
	out := make([]byte, 0, nProcs*(width+8))
	for p, row := range rows {
		out = append(out, []byte(fmt.Sprintf("p%03d |", p))...)
		out = append(out, row...)
		out = append(out, '\n')
	}
	out = append(out, []byte(fmt.Sprintf("makespan = %.4g s\n", r.Makespan))...)
	return string(out)
}
