package sim

// Adversarial timer/flow interleavings: randomized programs of staggered
// arrivals, chained completions and timer-started flows are replayed on
// both networks — the incremental flownet solver and the reference from-
// scratch max-min network (oracle.MaxMinNet) — which must agree on every completion time, on the
// completion order (up to floating-point ties) and on the final virtual
// time.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/platform"
)

// newReference creates an engine over the reference max-min network.
func newReference(linkCaps []float64) *Engine { return NewOn(oracle.NewMaxMinNet(linkCaps)) }

// fuzzEvent is one recorded completion.
type fuzzEvent struct {
	flow int
	at   float64
}

// fuzzProgram is a deterministic random simulation script that can be
// replayed on any engine.
type fuzzProgram struct {
	cl    *platform.Cluster
	seed  int64
	flows int
}

// run replays the program and returns the completion log in callback
// order plus the final time.
func (p fuzzProgram) run(newEngine func([]float64) *Engine) ([]fuzzEvent, float64) {
	rng := rand.New(rand.NewSource(p.seed))
	e := newEngine(p.cl.LinkCapacities())
	var log []fuzzEvent
	next := 0
	newFlow := func() (links []int, rateCap, bytes float64, id int) {
		src := rng.Intn(p.cl.P)
		dst := rng.Intn(p.cl.P)
		links, _ = p.cl.AppendRoute(nil, src, dst)
		rateCap = p.cl.EffectiveBandwidth(src, dst)
		if rng.Intn(8) == 0 {
			rateCap = 0
		}
		bytes = rng.Float64() * 5e8
		id = next
		next++
		return
	}
	for i := 0; i < p.flows; i++ {
		links, rateCap, bytes, id := newFlow()
		latency := rng.Float64() * 3
		chain := rng.Intn(4) == 0
		e.StartFlow(links, rateCap, latency, bytes, func() {
			log = append(log, fuzzEvent{flow: id, at: e.Now()})
			if chain {
				// Completion callbacks may start more flows: the classic
				// redistribution-triggers-successor pattern.
				cl2, cap2, b2, id2 := newFlow()
				e.StartFlow(cl2, cap2, 0, b2, func() {
					log = append(log, fuzzEvent{flow: id2, at: e.Now()})
				})
			}
		})
	}
	// A few bare timers interleave with flow completions.
	for i := 0; i < p.flows/4; i++ {
		at := rng.Float64() * 4
		links, rateCap, bytes, id := newFlow()
		e.At(at, func() {
			e.StartFlow(links, rateCap, 0, bytes, func() {
				log = append(log, fuzzEvent{flow: id, at: e.Now()})
			})
		})
	}
	return log, e.Run()
}

// timeClose allows the ulp-level divergence of the two networks' arithmetic.
func timeClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

func TestFuzzEnginesAgree(t *testing.T) {
	clusters := []*platform.Cluster{platform.Grillon(), platform.Grelon(), platform.Big512()}
	const programs = 30
	for _, cl := range clusters {
		for s := 0; s < programs; s++ {
			p := fuzzProgram{cl: cl, seed: int64(100*s + 17), flows: 40 + s%3*60}
			ref, refEnd := p.run(newReference)
			got, gotEnd := p.run(New)
			if !timeClose(refEnd, gotEnd) {
				t.Fatalf("%s seed %d: final time %g (flownet) vs %g (maxmin)", cl.Name, p.seed, gotEnd, refEnd)
			}
			if len(ref) != len(got) {
				t.Fatalf("%s seed %d: %d completions (flownet) vs %d (maxmin)", cl.Name, p.seed, len(got), len(ref))
			}
			// Per-flow completion times agree.
			refAt := make(map[int]float64, len(ref))
			for _, ev := range ref {
				refAt[ev.flow] = ev.at
			}
			for _, ev := range got {
				want, ok := refAt[ev.flow]
				if !ok {
					t.Fatalf("%s seed %d: flow %d completed only under flownet", cl.Name, p.seed, ev.flow)
				}
				if !timeClose(ev.at, want) {
					t.Fatalf("%s seed %d: flow %d completes at %g (flownet) vs %g (maxmin)",
						cl.Name, p.seed, ev.flow, ev.at, want)
				}
			}
			// Completion order agrees wherever times are distinguishable:
			// any strict time separation in the reference must order the
			// flownet log the same way.
			gotPos := make(map[int]int, len(got))
			for i, ev := range got {
				gotPos[ev.flow] = i
			}
			for i := 1; i < len(ref); i++ {
				prev, cur := ref[i-1], ref[i]
				if !timeClose(prev.at, cur.at) && gotPos[prev.flow] > gotPos[cur.flow] {
					t.Fatalf("%s seed %d: flows %d and %d complete in opposite orders",
						cl.Name, p.seed, prev.flow, cur.flow)
				}
			}
		}
	}
}

// TestFuzzEngineDeterminism pins replay determinism: the same program on
// the same solver must reproduce the identical completion log bit for bit.
func TestFuzzEngineDeterminism(t *testing.T) {
	for _, engine := range []struct {
		name string
		new  func([]float64) *Engine
	}{{"flownet", New}, {"maxmin", newReference}} {
		p := fuzzProgram{cl: platform.Grelon(), seed: 321, flows: 120}
		a, aEnd := p.run(engine.new)
		b, bEnd := p.run(engine.new)
		if aEnd != bEnd || len(a) != len(b) {
			t.Fatalf("%s: nondeterministic replay (%g/%d vs %g/%d)", engine.name, aEnd, len(a), bEnd, len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: completion %d differs across identical replays: %+v vs %+v", engine.name, i, a[i], b[i])
			}
		}
	}
}
