package flownet_test

// Randomized equivalence of the incremental flownet solver against the
// reference from-scratch progressive filling (oracle.MaxMin), on the
// topologies the replay actually uses: the paper's grelon cluster and the
// production-scale big512/big1024 presets. Both fresh populations and long
// add/remove sequences (the incremental repair path) are checked — well
// over a thousand solved populations per run.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/flownet"
	"repro/internal/oracle"
	"repro/internal/platform"
)

// tolClose checks relative agreement within 1e-9 (with an absolute floor
// for rates near zero).
func tolClose(a, b float64) bool {
	if a == b { // covers ±Inf
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// oracleFlow mirrors one live flownet member for the reference solver.
type oracleFlow struct {
	id    int
	links []int
	cap   float64
}

type oracleNet struct {
	t     *testing.T
	cl    *platform.Cluster
	caps  []float64
	net   *flownet.Net
	flows []oracleFlow
	rng   *rand.Rand

	// capLevels sums the rate-cap levels of the log after every check:
	// the perturbed caps must keep the binding-cap path exercised.
	capLevels int
}

func newOracleNet(t *testing.T, cl *platform.Cluster, seed int64) *oracleNet {
	return &oracleNet{
		t:    t,
		cl:   cl,
		caps: cl.LinkCapacities(),
		net:  flownet.New(cl.LinkCapacities()),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// addRandom starts one flow on a random (src, dst) route of the cluster,
// occasionally with no rate cap or a perturbed one to vary the cap
// ordering. On the presets β' equals the narrowest link of the route, so
// only the perturbed caps below 1× can bind.
func (o *oracleNet) addRandom() {
	src := o.rng.Intn(o.cl.P)
	dst := o.rng.Intn(o.cl.P)
	for dst == src {
		dst = o.rng.Intn(o.cl.P)
	}
	links, _ := o.cl.AppendRoute(nil, src, dst)
	rateCap := o.cl.EffectiveBandwidth(src, dst)
	switch o.rng.Intn(8) {
	case 0:
		rateCap = 0 // uncapped
	case 1:
		rateCap *= 0.25 + o.rng.Float64() // de-duplicate cap values
	}
	id := o.net.Start(links, rateCap, 1+o.rng.Float64()*1e9)
	o.flows = append(o.flows, oracleFlow{id: id, links: links, cap: rateCap})
}

func (o *oracleNet) removeRandom() {
	if len(o.flows) == 0 {
		return
	}
	i := o.rng.Intn(len(o.flows))
	o.net.Remove(o.flows[i].id)
	o.flows[i] = o.flows[len(o.flows)-1]
	o.flows = o.flows[:len(o.flows)-1]
}

// check solves both sides and compares every live flow's rate.
func (o *oracleNet) check() {
	o.t.Helper()
	o.net.Solve()
	o.capLevels += flownet.CapLevels(o.net)
	flowLinks := make([][]int, len(o.flows))
	flowCaps := make([]float64, len(o.flows))
	for i, f := range o.flows {
		flowLinks[i] = f.links
		flowCaps[i] = f.cap
	}
	want := oracle.MaxMin(o.caps, flowLinks, flowCaps)
	for i, f := range o.flows {
		if got := o.net.Rate(f.id); !tolClose(got, want[i]) {
			o.t.Fatalf("%s: flow %d (route %v cap %g) rate %g, oracle %g (%d flows, %d entities)",
				o.cl.Name, f.id, f.links, f.cap, got, want[i], len(o.flows), o.net.Entities())
		}
	}
}

func oracleClusters() []*platform.Cluster {
	return []*platform.Cluster{platform.Grelon(), platform.Big512(), platform.Big1024()}
}

// TestOracleFreshPopulations solves independent random populations from
// scratch on each topology and compares every rate.
func TestOracleFreshPopulations(t *testing.T) {
	const populations = 250 // ×3 clusters = 750 solved populations
	for _, cl := range oracleClusters() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			capLevels := 0
			for p := 0; p < populations; p++ {
				o := newOracleNet(t, cl, int64(1000*p+7))
				nf := 1 + o.rng.Intn(300)
				for i := 0; i < nf; i++ {
					o.addRandom()
				}
				o.check()
				capLevels += o.capLevels
			}
			if capLevels == 0 {
				t.Fatal("no solve logged a cap level: the binding-cap path went unexercised")
			}
		})
	}
}

// TestOracleIncrementalSequences drives long add/remove sequences through
// one Net — the level-log repair path — checking against a from-scratch
// oracle solve after every mutation batch.
func TestOracleIncrementalSequences(t *testing.T) {
	const (
		sequences = 40
		steps     = 25 // ×3 clusters ×40 sequences = 3000 incremental checks
	)
	for _, cl := range oracleClusters() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			capLevels := 0
			for s := 0; s < sequences; s++ {
				o := newOracleNet(t, cl, int64(5000*s+13))
				// Seed population.
				for i := 0; i < 50+o.rng.Intn(150); i++ {
					o.addRandom()
				}
				o.check()
				for step := 0; step < steps; step++ {
					// Small batches keep the repair path active; larger
					// ones exercise the full-solve fallback.
					batch := 1 + o.rng.Intn(4)
					if o.rng.Intn(10) == 0 {
						batch = 40 + o.rng.Intn(40)
					}
					for b := 0; b < batch; b++ {
						if o.rng.Intn(2) == 0 && len(o.flows) > 0 {
							o.removeRandom()
						} else {
							o.addRandom()
						}
					}
					o.check()
				}
				capLevels += o.capLevels
			}
			if capLevels == 0 {
				t.Fatal("no solve logged a cap level: the binding-cap path went unexercised")
			}
		})
	}
}

// TestOracleIncrementalPathTaken pins that the sequences above actually
// run the repair path rather than silently falling back to full solves.
func TestOracleIncrementalPathTaken(t *testing.T) {
	cl := platform.Big512()
	o := newOracleNet(t, cl, 99)
	for i := 0; i < 200; i++ {
		o.addRandom()
	}
	o.check()
	for step := 0; step < 50; step++ {
		o.removeRandom()
		o.addRandom()
		o.check()
	}
	if o.net.IncrementalSolves() < 40 {
		t.Errorf("incremental solves = %d of %d, want the single-flow churn handled incrementally",
			o.net.IncrementalSolves(), o.net.IncrementalSolves()+o.net.FullSolves())
	}
}

// TestOracleDrainEquivalence drains a shared population step by step in
// both a flownet Net and a hand-tracked per-flow mirror using oracle
// rates, checking volumes stay in lockstep.
func TestOracleDrainEquivalence(t *testing.T) {
	cl := platform.Grelon()
	o := newOracleNet(t, cl, 4242)
	for i := 0; i < 120; i++ {
		o.addRandom()
	}
	remaining := map[int]float64{}
	for _, f := range o.flows {
		remaining[f.id] = o.net.Remaining(f.id)
	}
	now := 0.0
	for round := 0; round < 200 && len(o.flows) > 0; round++ {
		o.check()
		d := o.net.NextDeadline(now)
		if math.IsInf(d, 1) {
			t.Fatal("stalled population")
		}
		dt := (d - now) * (0.5 + o.rng.Float64()) // under- and overshoot
		o.net.Advance(dt)
		now += dt
		for _, f := range o.flows {
			remaining[f.id] -= o.net.Rate(f.id) * dt
		}
		drained := map[int]bool{}
		o.net.PopDrained(now, 1e-6, func(id int) { drained[id] = true })
		kept := o.flows[:0]
		for _, f := range o.flows {
			got := o.net.Remaining(f.id)
			if !drained[f.id] {
				if math.Abs(got-remaining[f.id]) > 1e-3+1e-9*math.Abs(remaining[f.id]) {
					t.Fatalf("flow %d: remaining %g, mirror %g", f.id, got, remaining[f.id])
				}
				kept = append(kept, f)
				continue
			}
			if remaining[f.id] > 1e-3 {
				t.Fatalf("flow %d drained with %g bytes left in the mirror", f.id, remaining[f.id])
			}
			delete(remaining, f.id)
		}
		o.flows = kept
	}
}
