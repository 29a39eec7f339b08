package flownet

// Cap-heap admission: only a cap below every link capacity of its route
// can fire before the route's narrowest link, so only such entities enter
// the pending-cap heap. On every cluster preset the empirical bandwidth β'
// equals the narrowest link of the route, so replays on the presets never
// push a cap at all.

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestCapAdmissionOnPresets churns populations capped at the presets'
// EffectiveBandwidth through every solve regime and checks that the cap
// heap never receives an entry.
func TestCapAdmissionOnPresets(t *testing.T) {
	for ci, name := range platform.Names() {
		cl, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(17 + ci)))
		n := New(cl.LinkCapacities())
		var ids []int
		capped := 0
		for step := 0; step < 600; step++ {
			// Grow to ~150 flows, shrink to a handful, grow again: scratch,
			// full and incremental solves all run.
			grow := step/200%2 == 0
			for b := 1 + rng.Intn(3); b > 0; b-- {
				if !grow && len(ids) > 2 || grow && len(ids) > 150 {
					i := rng.Intn(len(ids))
					n.Remove(ids[i])
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					continue
				}
				src := rng.Intn(cl.P)
				dst := rng.Intn(cl.P - 1)
				if dst >= src {
					dst++
				}
				links, _ := cl.AppendRoute(nil, src, dst)
				rateCap := cl.EffectiveBandwidth(src, dst)
				if rng.Intn(8) == 0 {
					rateCap = 0
				} else {
					capped++
				}
				ids = append(ids, n.Start(links, rateCap, 1e6))
			}
			n.Solve()
			if c := n.capHeap.Cap(); c != 0 {
				t.Fatalf("%s step %d: the cap heap received entries (capacity %d)", name, step, c)
			}
		}
		if capped == 0 || n.scratchSolves == 0 || n.fullSolves == 0 || n.incrSolves == 0 {
			t.Fatalf("%s: %d capped flows, %d scratch, %d full, %d incremental solves: a case went unexercised",
				name, capped, n.scratchSolves, n.fullSolves, n.incrSolves)
		}
	}
}

// TestCapAdmissionRule pins the admission boundary on one route: a cap
// equal to the narrowest link is left out of the heap and the link
// fixes the flow, a cap just below it enters the heap and fires.
func TestCapAdmissionRule(t *testing.T) {
	n := New([]float64{100, 50})
	eq := n.Start([]int{0, 1}, 50, 1)
	n.Solve()
	if r := n.Rate(eq); r != 50 || n.capHeap.Cap() != 0 {
		t.Fatalf("cap at the narrowest link: rate %g, cap heap capacity %d; want 50 and no entry", r, n.capHeap.Cap())
	}
	below := n.Start([]int{1, 0}, 20, 1)
	n.Solve()
	if r := n.Rate(below); r != 20 || n.capHeap.Cap() == 0 {
		t.Fatalf("cap below the narrowest link: rate %g, cap heap capacity %d; want 20 and an entry", r, n.capHeap.Cap())
	}
	if r := n.Rate(eq); r != 30 {
		t.Fatalf("uncapped-in-effect flow: rate %g, want the link's remaining 30", r)
	}
}
