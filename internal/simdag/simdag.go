// Package simdag replays a static schedule on a simulated cluster and
// measures its actual makespan under network contention.
//
// This is the evaluation half of the paper's methodology (§IV): the
// scheduling algorithms decide *where* and *in which order* tasks run,
// using contention-free estimates; the replay then executes the schedule
// in the flow-level simulator of internal/sim, where every redistribution
// becomes a set of point-to-point flows sharing link bandwidth under
// max-min fairness. Start dates therefore shift whenever redistributions
// contend, exactly the effect RATS is designed to mitigate.
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

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/sim"
)

// Result reports the outcome of one replay.
type Result struct {
	Start    []float64 // actual start time of each task
	Finish   []float64 // actual finish time of each task
	Makespan float64   // finish time of the exit task

	RemoteBytes float64 // bytes that crossed the network
	LocalBytes  float64 // bytes kept on-node by redistributions
	FlowCount   int     // point-to-point wire flows simulated
	EdgeFinish  []float64

	// Counters snapshots the replay engine's observability counters:
	// flow-batch sizes and the rate solver's regime counts.
	Counters obs.Counters
}

// Execute replays schedule s of graph g on cluster cl and returns the
// measured times. It returns an error if the schedule is structurally
// invalid or the replay fails to complete every task (which would indicate
// a scheduling bug rather than a property of the workload).
func Execute(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	return ExecuteOn(sim.New(cl.LinkCapacities()), g, costs, cl, s)
}

// ExecuteOn is Execute on a given engine, which must be fresh and built
// over cl's link capacities. It is the seam through which tests replay on
// the reference max-min network.
func ExecuteOn(eng *sim.Engine, g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*Result, error) {
	if err := s.Validate(g, cl); err != nil {
		return nil, err
	}
	n := g.N()
	rp := &replay{
		g: g, costs: costs, cl: cl, s: s,
		res: &Result{
			Start:      make([]float64, n),
			Finish:     make([]float64, n),
			EdgeFinish: make([]float64, len(g.Edges)),
		},
		eng:       eng,
		queues:    make([][]int, cl.P),
		cursor:    make([]int, cl.P),
		edgesLeft: make([]int, n),
		started:   make([]bool, n),
	}
	res := rp.res

	// Per-processor task queues in mapping order.
	for _, t := range s.Order {
		for _, p := range s.Procs[t] {
			rp.queues[p] = append(rp.queues[p], t)
		}
	}
	for t := 0; t < n; t++ {
		rp.edgesLeft[t] = len(g.In(t))
	}

	// Seed: any task with no in-edges can start (typically the entry).
	for t := 0; t < n; t++ {
		if rp.edgesLeft[t] == 0 {
			rp.tryStart(t)
		}
	}
	eng.Run()
	res.Counters = eng.Counters()

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

// replay is the mutable state of one schedule replay. It exists so the
// event handlers are methods instead of a web of mutually recursive
// closures, and so the per-edge completion callbacks and per-flow route
// slices can be pooled: short replays (the FFT scenario classes) used to be
// bounded by this setup machinery — one closure per wire flow, one route
// slice per flow — rather than by rate solving.
type replay struct {
	g     *dag.Graph
	costs *moldable.Costs
	cl    *platform.Cluster
	s     *core.Schedule
	res   *Result
	eng   *sim.Engine

	queues    [][]int // per-processor task queues in mapping order
	cursor    []int
	edgesLeft []int
	started   []bool
	nFinished int

	waitPool []*edgeWait       // recycled edge-completion trackers
	slab     []platform.LinkID // route arena: flows slice one chunked backing array

	// Scratch for startRedist's batched flow launch, reused across edges:
	// the edge's wire-flow specs, their latencies (parallel slice), the
	// distinct latencies in first-appearance order, and the spec group
	// handed to one StartFlowBatch call.
	specBuf  []sim.FlowSpec
	latBuf   []float64
	lats     []float64
	groupBuf []sim.FlowSpec
}

// edgeWait tracks one in-flight redistribution: the pending wire-flow count
// of its edge, plus a prebuilt completion callback handed to every flow.
// Pooling the waits makes the per-flow callback allocation-free — the
// closure is created once per pool entry, not once per flow.
type edgeWait struct {
	rp        *replay
	remaining int
	eid, to   int
	cb        func()
}

func (rp *replay) getWait() *edgeWait {
	if k := len(rp.waitPool); k > 0 {
		w := rp.waitPool[k-1]
		rp.waitPool = rp.waitPool[:k-1]
		return w
	}
	w := &edgeWait{rp: rp}
	w.cb = w.flowDone
	return w
}

func (w *edgeWait) flowDone() {
	w.remaining--
	if w.remaining > 0 {
		return
	}
	rp, eid, to := w.rp, w.eid, w.to
	rp.waitPool = append(rp.waitPool, w) // all flows done: recycle before any restart
	rp.res.EdgeFinish[eid] = rp.eng.Now()
	rp.edgesLeft[to]--
	rp.tryStart(to)
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
	g, s, res, eng := rp.g, rp.s, rp.res, rp.eng
	to := e.To
	if e.Bytes <= 0 || g.Tasks[e.From].Virtual || g.Tasks[to].Virtual ||
		len(s.Procs[e.From]) == 0 || len(s.Procs[to]) == 0 {
		res.EdgeFinish[e.ID] = eng.Now()
		rp.edgesLeft[to]--
		rp.tryStart(to)
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
		res.EdgeFinish[e.ID] = eng.Now()
		rp.edgesLeft[to]--
		rp.tryStart(to)
		return
	}
	w := rp.getWait()
	w.remaining = pending
	w.eid, w.to = e.ID, to
	// Collect the edge's wire flows, then launch them grouped by latency —
	// one StartFlowBatch per distinct route latency instead of one StartFlow
	// (and one captured closure) per flow. All of an edge's flows register
	// here, inside one timer callback, so their engine timers would have
	// been consecutive; grouping by exact latency in first-appearance order
	// therefore preserves the relative order of the flow starts at every
	// fire time, and with it the rate solver's member order and completion
	// tie-breaks.
	rp.specBuf, rp.latBuf, rp.lats = rp.specBuf[:0], rp.latBuf[:0], rp.lats[:0]
	redist.VisitBlocks(e.Bytes, len(senders), len(receivers), func(i, j int, v float64) {
		src, dst := senders[i], receivers[j]
		if src == dst {
			return
		}
		links, lat := rp.route(src, dst)
		res.RemoteBytes += v
		res.FlowCount++
		rp.specBuf = append(rp.specBuf, sim.FlowSpec{
			Links: links, RateCap: rp.cl.EffectiveBandwidth(src, dst), Bytes: v,
		})
		rp.latBuf = append(rp.latBuf, lat)
		for _, l := range rp.lats {
			if l == lat {
				return
			}
		}
		rp.lats = append(rp.lats, lat)
	})
	for _, l := range rp.lats {
		group := rp.groupBuf[:0]
		for k, lat := range rp.latBuf {
			if lat == l {
				group = append(group, rp.specBuf[k])
			}
		}
		rp.groupBuf = group
		eng.StartFlowBatch(l, group, w.cb)
	}
	// Drop the scratch's route references: the batches hold their own
	// copies, and lingering ones would pin retired arena chunks.
	for k := range rp.specBuf {
		rp.specBuf[k].Links = nil
	}
	for k := range rp.groupBuf {
		rp.groupBuf[k].Links = nil
	}
}

func (rp *replay) onFinish(t int) {
	rp.res.Finish[t] = rp.eng.Now()
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
	rp.res.Start[t] = rp.eng.Now()
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
	rp.eng.After(dur, func() { rp.onFinish(t) })
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
