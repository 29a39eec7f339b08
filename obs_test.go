package repro

// Guards on the observability layer's two core promises: attaching an
// observer never changes a scheduling decision (the wire document stays
// byte-identical), and with observation at its default (counters only, no
// tracer) the mapping hot path stays allocation-neutral.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/rats"
)

// TestObserverByteIdenticalSchedules randomizes DAG shapes across clusters
// and strategies and requires the marshaled wire document of an observed
// run to equal the unobserved run's byte for byte.
func TestObserverByteIdenticalSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clusters := []string{"grillon", "grelon", "grelon-het"}
	strategies := []rats.Strategy{rats.Baseline, rats.Delta, rats.TimeCost}
	for i := 0; i < 6; i++ {
		d := rats.Random(rats.RandomSpec{
			N: 20 + rng.Intn(30), Width: 0.3 + 0.5*rng.Float64(),
			Density: 0.2 + 0.4*rng.Float64(), Regularity: 0.8,
			Layered: rng.Intn(2) == 0, Seed: rng.Int63(),
		})
		if err := d.Build(); err != nil {
			t.Fatal(err)
		}
		cluster := clusters[rng.Intn(len(clusters))]
		strategy := strategies[rng.Intn(len(strategies))]
		name := fmt.Sprintf("case%d/%s/%v", i, cluster, strategy)
		cl, err := rats.ClusterByName(cluster)
		if err != nil {
			t.Fatal(err)
		}
		base := []rats.Option{rats.WithCluster(cl), rats.WithStrategy(strategy)}
		plain, err := rats.New(base...).Schedule(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		observed, err := rats.New(append(base,
			rats.WithObserver(rats.NewTracer(256)))...).Schedule(d)
		if err != nil {
			t.Fatalf("%s observed: %v", name, err)
		}
		pb, err1 := json.Marshal(plain)
		ob, err2 := json.Marshal(observed)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: marshal: %v / %v", name, err1, err2)
		}
		if !bytes.Equal(pb, ob) {
			t.Errorf("%s: observer changed the wire document:\nplain    %s\nobserved %s",
				name, pb, ob)
		}
		// The observed run must actually have counted something.
		if observed.Counters.AllocGrants == 0 {
			t.Errorf("%s: observed run recorded no allocation grants", name)
		}
	}
}

// TestMapCountersAllocationNeutral pins the always-on counter collection
// to the allocation-free mapping path: attaching a ring tracer to core.Map
// may add only bounded overhead over the tracer-free run (whose counters
// ride in fields the mapper owns anyway, costing no allocations).
func TestMapCountersAllocationNeutral(t *testing.T) {
	cl := platform.Grelon()
	g := gen.Random(gen.RandomParams{
		N: 100, Width: 0.5, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 7})
	costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
	a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
	opts := core.DefaultNaive(core.StrategyTimeCost)

	plain := testing.AllocsPerRun(10, func() {
		core.Map(g, costs, cl, a, opts)
	})
	traced := opts
	traced.Tracer = obs.NewTracer(8192)
	withTracer := testing.AllocsPerRun(10, func() {
		core.Map(g, costs, cl, a, traced)
	})
	// The tracer ring is preallocated and its record path allocation-free;
	// the budget leaves headroom for the span-capture closures only.
	if withTracer > plain+8 {
		t.Errorf("tracer adds %.1f allocs/run over the %.1f baseline (budget 8)",
			withTracer-plain, plain)
	}
}
