package flownet_test

// Oracle equivalence of the small-population rule: populations at or below
// the scratch threshold always take a full solve and leave the log
// untrusted, and must produce exactly the same rates as the reference
// solver — also across transitions into and out of the incremental regime.

import (
	"testing"

	"repro/internal/platform"
)

// TestSmallPopulationScratchPathTaken pins that tiny-population churn (the
// irregular jump=2 replay profile) actually takes the small-population full
// solve instead of the merge replay, and still matches the from-scratch
// oracle on every solve.
func TestSmallPopulationScratchPathTaken(t *testing.T) {
	for _, cl := range []*platform.Cluster{platform.Grelon(), platform.Big1024()} {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			o := newOracleNet(t, cl, 314)
			for i := 0; i < 5; i++ {
				o.addRandom()
			}
			o.check()
			for step := 0; step < 60; step++ {
				if o.rng.Intn(2) == 0 && len(o.flows) > 1 {
					o.removeRandom()
				} else {
					o.addRandom()
				}
				o.check()
			}
			if o.net.ScratchSolves() < 50 {
				t.Errorf("scratch solves = %d (full %d, incremental %d): tiny populations must not repair the log",
					o.net.ScratchSolves(), o.net.FullSolves(), o.net.IncrementalSolves())
			}
			if o.net.IncrementalSolves() > 0 {
				t.Errorf("incremental solves = %d below the scratch threshold", o.net.IncrementalSolves())
			}
		})
	}
}

// TestSmallPopulationRegimeTransitions grows a population across the
// scratch threshold and shrinks it back, checking oracle equivalence at
// every step. The first above-threshold solve after a small one must be a
// full solve, not an incremental one: a small solve leaves the log
// untrusted, and that rule is what the replay digests depend on. Dropping
// back below the threshold must stay exact.
func TestSmallPopulationRegimeTransitions(t *testing.T) {
	cl := platform.Big512()
	transitions := 0
	for seed := int64(0); seed < 6; seed++ {
		o := newOracleNet(t, cl, 9000+seed)
		afterSmall := false
		check := func() {
			t.Helper()
			small, full, incr := o.net.ScratchSolves(), o.net.FullSolves(), o.net.IncrementalSolves()
			o.check()
			if o.net.ScratchSolves() > small {
				afterSmall = true
				return
			}
			if afterSmall {
				if o.net.FullSolves() == full {
					t.Fatalf("seed %d: the first solve above the threshold after a small one was not full (incremental solves %d → %d)",
						seed, incr, o.net.IncrementalSolves())
				}
				transitions++
			}
			afterSmall = false
		}
		// Grow 0 → 120 one flow at a time, solving at every step.
		for i := 0; i < 120; i++ {
			o.addRandom()
			check()
		}
		// Churn in the logged regime so the log carries real history.
		for step := 0; step < 20; step++ {
			o.removeRandom()
			o.addRandom()
			check()
		}
		// Shrink back through the threshold to a handful of flows.
		for len(o.flows) > 3 {
			o.removeRandom()
			check()
		}
		// And grow again: the post-small log rebuild must be exact.
		for i := 0; i < 60; i++ {
			o.addRandom()
			check()
		}
		if o.net.ScratchSolves() == 0 {
			t.Fatal("transition sequence never exercised the scratch path")
		}
		if o.net.IncrementalSolves() == 0 {
			t.Fatal("transition sequence never exercised the log-repair path")
		}
	}
	if transitions == 0 {
		t.Fatal("no solve followed a small one above the threshold")
	}
}
