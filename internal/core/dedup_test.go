package core

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/redist"
)

// TestBaselineDedupSkipsEvaluations pins the per-task candidate dedup: on a
// chain whose every task is allocated the whole cluster, the adoption
// candidate (delta) or accepted stretch (time-cost) inherits the
// predecessor's full-cluster rank order, and the baseline — the
// earliest-available set aligned to that same predecessor — lands on the
// identical ordered processor list. The dedup must (a) fire, (b) save
// exactly one estimator evaluation per hit, and (c) leave the schedule
// byte-identical to the dedup-disabled engine.
func TestBaselineDedupSkipsEvaluations(t *testing.T) {
	cl := platform.Grillon()
	g := chain(6, 40e6)
	costs := moldable.NewCosts(g, cl.SpeedGFlops)
	a := make([]int, g.N())
	for i := range a {
		a[i] = cl.P
	}

	for _, st := range []Strategy{StrategyDelta, StrategyTimeCost} {
		opts := DefaultNaive(st)

		cDedup := NewMapContext(cl)
		withDedup := cDedup.Map(g, costs, a, opts)
		hits := cDedup.m.nDedup
		evalsDedup := cDedup.m.nEval

		opts.disableDedup = true
		cPlain := NewMapContext(cl)
		noDedup := cPlain.Map(g, costs, a, opts)
		evalsPlain := cPlain.m.nEval

		if hits == 0 {
			t.Errorf("%v: dedup never fired on an all-identity chain", st)
		}
		if cPlain.m.nDedup != 0 {
			t.Errorf("%v: disabled engine recorded %d dedup hits", st, cPlain.m.nDedup)
		}
		// Each hit skips exactly one evalOn call — no more, no less.
		if evalsDedup+hits != evalsPlain {
			t.Errorf("%v: evals %d + dedup hits %d != dedup-disabled evals %d",
				st, evalsDedup, hits, evalsPlain)
		}
		if d1, d2 := scheduleDigest(withDedup), scheduleDigest(noDedup); d1 != d2 {
			t.Errorf("%v: dedup changed the schedule: %s != %s", st, d1, d2)
		}
	}
}

// TestDedupDigestIdenticalRandomized sweeps random graphs and confirms the
// dedup is purely an evaluation-count optimization: digests match the
// dedup-disabled engine everywhere, across alignment modes, with and
// without time-cost packing, and at a strict minrho.
func TestDedupDigestIdenticalRandomized(t *testing.T) {
	cl := platform.Grelon()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng)
		costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
		a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
		for _, st := range []Strategy{StrategyDelta, StrategyTimeCost} {
			opts := DefaultNaive(st)
			opts.Align = []redist.AlignMode{redist.AlignHungarian, redist.AlignGreedy, redist.AlignAuto}[i%3]
			opts.Packing = i%4 != 1
			if i%5 == 2 {
				opts.MinRho = 0.9
			}
			want := scheduleDigest(Map(g, costs, cl, a, opts))
			opts.disableDedup = true
			if got := scheduleDigest(Map(g, costs, cl, a, opts)); got != want {
				t.Fatalf("graph %d %v: dedup-disabled digest %s != dedup digest %s", i, st, got, want)
			}
		}
	}
}
