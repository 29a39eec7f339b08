package simdag

// Tests of the replay's event loop: event order, the batched flow launch,
// the flow arena, stalls and clock resolution.

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/flownet"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
)

func TestEventsFireInTimeThenPushOrder(t *testing.T) {
	rp := &replay{}
	for _, ev := range []struct {
		at   float64
		task int32
	}{{3, 3}, {1, 1}, {2, 2}, {1, 11}, {1, 12}, {2, 21}, {1, 13}, {1, 14}, {2, 22}, {1, 15}} {
		rp.after(ev.at, event{task: ev.task}) // simultaneous events: FIFO
	}
	var got []int32
	for rp.events.Len() > 0 {
		got = append(got, rp.events.Pop().V.task)
	}
	want := []int32{1, 11, 12, 13, 14, 15, 2, 21, 22, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	// An event scheduled into the past fires now, after the events already
	// due now, rather than violating time monotonicity.
	rp := &replay{now: 5}
	rp.after(0, event{task: 1})
	rp.after(-4, event{task: 2})
	for _, want := range []int32{1, 2} {
		ev := rp.events.Pop()
		if ev.K != 5 || ev.V.task != want {
			t.Fatalf("popped task %d at %g, want task %d at 5", ev.V.task, ev.K, want)
		}
	}
}

// twoTaskReplay returns a replay of a → b on chti (a on processor 0, b on
// 1) over net, for tests that launch flows by hand as edge 0's.
func twoTaskReplay(net Network) *replay {
	cl := platform.Chti()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 5e6, A: 100})
	g.AddTask(dag.Task{Name: "b", M: 5e6, A: 100})
	g.AddEdge(0, 1, 5e6)
	return newReplay(net, g, moldable.NewCosts(g, cl.SpeedGFlops), cl, manual(g, [][]int{{0}, {1}}))
}

// recNet records the network calls the replay makes: every start and
// every completion, by volume, with the virtual time it happened at.
type recNet struct {
	*flownet.Net
	now   float64
	log   []string
	bytes map[int]float64 // live flow id → volume
}

func (r *recNet) Start(links []int, rateCap, volume float64) int {
	id := r.Net.Start(links, rateCap, volume)
	r.bytes[id] = volume
	r.log = append(r.log, "start "+ftoa(r.now)+" "+ftoa(volume))
	return id
}

func (r *recNet) Advance(dt float64) {
	r.Net.Advance(dt)
	r.now += dt
}

func (r *recNet) PopDrained(now, eps float64, yield func(id int)) bool {
	return r.Net.PopDrained(now, eps, func(id int) {
		r.log = append(r.log, "done "+ftoa(now)+" "+ftoa(r.bytes[id]))
		yield(id)
	})
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// TestBatchedLaunchMatchesPerFlow is the batching oracle: random flow
// populations of one edge (mixed routes, rate caps, latencies, plus
// link-less and zero-byte flows) are launched once as one event per flow
// and once through launch, one batch per distinct latency. The network
// must see the same starts and completions at the same times, in the same
// order, and the edge must finish at the same time: grouping by latency
// in first-appearance order keeps the per-flow event order.
func TestBatchedLaunchMatchesPerFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lats := []float64{0, 0.25, 0.5}
	for trial := 0; trial < 40; trial++ {
		caps := make([]float64, 3+rng.Intn(4))
		for i := range caps {
			caps[i] = 50 + 200*rng.Float64()
		}
		specs := make([]flowSpec, 1+rng.Intn(12))
		specLat := make([]float64, len(specs))
		for i := range specs {
			var links []int
			for l := range caps {
				if rng.Intn(2) == 0 {
					links = append(links, l)
				}
			}
			bytes := 10 + 2000*rng.Float64()
			switch rng.Intn(8) {
			case 0:
				links = nil // completes after its latency alone
			case 1:
				bytes = 0 // zero-byte flow
			}
			rc := 0.0
			if rng.Intn(2) == 0 {
				rc = 20 + 100*rng.Float64()
			}
			specs[i] = flowSpec{links: links, rateCap: rc, bytes: bytes}
			specLat[i] = lats[rng.Intn(len(lats))]
		}

		run := func(batched bool) ([]string, float64) {
			net := &recNet{Net: flownet.New(caps), bytes: map[int]float64{}}
			rp := twoTaskReplay(net)
			rp.pending[0] = int32(len(specs))
			if batched {
				for i, s := range specs {
					rp.specBuf = append(rp.specBuf, s)
					rp.latBuf = append(rp.latBuf, specLat[i])
					dup := false
					for _, l := range rp.lats {
						dup = dup || l == specLat[i]
					}
					if !dup {
						rp.lats = append(rp.lats, specLat[i])
					}
				}
				rp.launch(0)
			} else {
				for i, s := range specs {
					lo := int32(len(rp.flows))
					rp.flows = append(rp.flows, s)
					rp.nWaiting++
					rp.after(specLat[i], event{task: -1, edge: 0, lo: lo, hi: lo + 1})
				}
			}
			if err := rp.run(); err != nil {
				t.Fatal(err)
			}
			return net.log, rp.res.EdgeFinish[0]
		}

		single, singleEnd := run(false)
		batched, batchedEnd := run(true)
		if singleEnd != batchedEnd {
			t.Fatalf("trial %d: edge done at %g batched, %g per flow", trial, batchedEnd, singleEnd)
		}
		if len(single) != len(batched) {
			t.Fatalf("trial %d: %d network events batched vs %d per flow", trial, len(batched), len(single))
		}
		for i := range single {
			if single[i] != batched[i] {
				t.Fatalf("trial %d event %d: batched %q, per flow %q", trial, i, batched[i], single[i])
			}
		}
	}
}

// TestWarmBatchCycleAllocFree pins the point of the typed event heap and
// the flow arena: once the replay's buffers are warm (event heap, flow
// arena, flow-edge table, solver entities), launching and draining a
// 64-flow batch allocates nothing at all.
func TestWarmBatchCycleAllocFree(t *testing.T) {
	rp := twoTaskReplay(flownet.New([]float64{100, 100}))
	rp.pending[0] = math.MaxInt32 // the edge never completes
	routes := [][]int{{0}, {1}}
	cycle := func() {
		for i := 0; i < 64; i++ {
			rp.specBuf = append(rp.specBuf, flowSpec{links: routes[i%2], bytes: 100})
			rp.latBuf = append(rp.latBuf, 0.1)
		}
		rp.lats = append(rp.lats, 0.1)
		rp.launch(0)
		rp.specBuf, rp.latBuf, rp.lats = rp.specBuf[:0], rp.latBuf[:0], rp.lats[:0]
		if err := rp.run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm every buffer on the cycle's path
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warm 64-flow batch cycle allocates %.1f times, want 0", allocs)
	}
	if len(rp.flows) != 0 || rp.nWaiting != 0 {
		t.Errorf("idle replay holds %d arena flows and %d waiting batches, want 0 and 0", len(rp.flows), rp.nWaiting)
	}
}

// TestFlowArenaEmptiesBetweenWaves replays a full schedule and checks the
// flow arena afterwards: every batch fired, the arena is empty, and it
// never had to hold every flow of the replay at once.
func TestFlowArenaEmptiesBetweenWaves(t *testing.T) {
	g, costs, cl, s := pipelineSchedule()
	rp := newReplay(flownet.New(cl.LinkCapacities()), g, costs, cl, s)
	r, err := rp.execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.flows) != 0 || rp.nWaiting != 0 {
		t.Fatalf("after the replay: %d arena flows, %d waiting batches, want 0 and 0", len(rp.flows), rp.nWaiting)
	}
	if cap(rp.flows) >= r.FlowCount {
		t.Errorf("arena grew to %d for %d flows: it is not reused between waves", cap(rp.flows), r.FlowCount)
	}
}

// TestStalledReplayReturnsError: a broken platform (a zero-capacity link)
// makes the replay fail with an error, on both networks, rather than hang
// or panic.
func TestStalledReplayReturnsError(t *testing.T) {
	cl := platform.Chti()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 5e6, A: 100})
	g.AddTask(dag.Task{Name: "b", M: 5e6, A: 100})
	g.AddEdge(0, 1, 5e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	s := manual(g, [][]int{{0}, {1}})
	caps := make([]float64, len(cl.LinkCapacities())) // every link at 0 B/s
	for _, net := range []Network{flownet.New(caps), oracle.NewMaxMinNet(caps)} {
		r, err := ExecuteOn(net, g, costs, cl, s)
		if err == nil || !strings.Contains(err.Error(), "stalled") {
			t.Fatalf("%T: zero-capacity link gave result %v, error %v; want a stall error", net, r, err)
		}
	}
}

func TestSubResolutionResidueCompletes(t *testing.T) {
	// Regression test for the fluid-drain livelock: a flow whose drain
	// time is below the clock's floating-point resolution must still
	// complete. The producer finishes near t = 1e9 s, where one ULP is
	// about 1.2e-7 s, and sends 1 byte, which drains in about 1e-8 s.
	cl := platform.Chti()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 1e16 * cl.SpeedGFlops, A: 100})
	g.AddTask(dag.Task{Name: "b", M: 5e6, A: 100})
	g.AddEdge(0, 1, 1)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	r, err := Execute(g, costs, cl, manual(g, [][]int{{0}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish[0] < 1e8 {
		t.Fatalf("producer finished at %g, want a clock past 1e8 s", r.Finish[0])
	}
	_, lat := cl.AppendRoute(nil, 0, 1)
	if gap := r.Start[1] - r.Finish[0]; math.Abs(gap-lat) > 1e-6 {
		t.Errorf("sub-resolution flow took %g s after its producer, want its latency %g", gap, lat)
	}
}

func TestNegligibleFlowCompletesAtLatency(t *testing.T) {
	// A wire flow at or below completionEps bytes completes when its batch
	// fires, after the route latency alone, without entering the network.
	cl := platform.Chti()
	g := dag.NewGraph(2, 1)
	g.AddTask(dag.Task{Name: "a", M: 5e6, A: 100})
	g.AddTask(dag.Task{Name: "b", M: 5e6, A: 100})
	g.AddEdge(0, 1, completionEps/2)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	r, err := Execute(g, costs, cl, manual(g, [][]int{{0}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	_, lat := cl.AppendRoute(nil, 0, 1)
	if got, want := r.EdgeFinish[0], r.Finish[0]+lat; got != want {
		t.Errorf("edge finished at %g, want %g (producer finish + latency)", got, want)
	}
	if r.FlowCount != 1 || r.Counters.SolvesFull+r.Counters.SolvesIncremental+r.Counters.SolvesScratch != 0 {
		t.Errorf("%d flows, counters %+v: want one flow and no rate solve", r.FlowCount, r.Counters)
	}
}

// pipelineSchedule is the time-cost schedule of a 50-task irregular DAG on
// grillon: 1,102 wire flows, many of them in flight at once.
func pipelineSchedule() (*dag.Graph, *moldable.Costs, *platform.Cluster, *core.Schedule) {
	cl := platform.Grillon()
	g := gen.Random(gen.RandomParams{N: 50, Width: 0.5, Regularity: 0.2, Density: 0.8, Layered: false, Jump: 2, Seed: 3})
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	return g, costs, cl, core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
}

func TestChainedRedistributionsStartFromCompletions(t *testing.T) {
	// a → b → c on three processors: the flow into b completes, b runs,
	// and b's finish starts the flow into c. Each gap is exactly latency
	// plus volume over the solo rate.
	cl := platform.Grillon()
	g := dag.NewGraph(3, 2)
	for _, name := range []string{"a", "b", "c"} {
		g.AddTask(dag.Task{Name: name, M: 10e6, A: 100})
	}
	g.AddEdge(0, 1, g.Tasks[0].Bytes())
	g.AddEdge(1, 2, 2*g.Tasks[1].Bytes())
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	r, err := Execute(g, costs, cl, manual(g, [][]int{{0}, {1}, {2}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges { // task i runs on processor i
		_, lat := cl.AppendRoute(nil, e.From, e.To)
		want := lat + e.Bytes/math.Min(cl.LinkBandwidth, cl.EffectiveBandwidth(e.From, e.To))
		if gap := r.Start[e.To] - r.Finish[e.From]; math.Abs(gap-want) > 1e-6 {
			t.Errorf("edge %d→%d: gap %g, want %g", e.From, e.To, gap, want)
		}
	}
	if r.FlowCount != 2 || r.Counters.FlowBatches != 2 {
		t.Errorf("%d flows in %d batches, want 2 in 2", r.FlowCount, r.Counters.FlowBatches)
	}
}
