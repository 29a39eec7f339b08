package flownet

// The deadline index is a position-indexed heap holding exactly one
// (deadline, entity) entry per draining entity. Randomized operation
// sequences on the paper's and the production-scale link vectors check,
// after every operation, that the position index and the heap agree, that
// the heap is ordered on (t, eid), and that an entity has an entry exactly
// when it is live with weight > 0, rate > 0 and a finite head.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// checkDeadlineIndex verifies the deadline heap against the entity table.
func checkDeadlineIndex(t *testing.T, n *Net, op string) {
	t.Helper()
	for i := 0; i < n.dl.Len(); i++ {
		k := n.dl.At(i)
		if p := n.dl.Slot(k.ID); p != i {
			t.Fatalf("%s: heap[%d] holds entity %d, whose position reads %d", op, i, k.ID, p)
		}
		if i > 0 {
			if pk := n.dl.At((i - 1) / 2); k.K < pk.K || (k.K == pk.K && k.ID < pk.ID) {
				t.Fatalf("%s: heap[%d] = %+v orders before its parent %+v", op, i, *k, *pk)
			}
		}
	}
	for eid := range n.ents {
		e := &n.ents[eid]
		live := int(e.pos) < len(n.active) && n.active[e.pos] == int32(eid)
		want := live && e.weight > 0 && e.rate > 0 && !math.IsInf(n.headFin[e.pos], 1)
		p := n.dl.Slot(int64(eid))
		if p >= n.dl.Len() || (p >= 0 && n.dl.At(p).ID != int64(eid)) {
			t.Fatalf("%s: entity %d points at heap slot %d of %d", op, eid, p, n.dl.Len())
		}
		if has := p >= 0; has != want {
			t.Fatalf("%s: entity %d (live %v, weight %d, rate %g) has entry %v, want %v",
				op, eid, live, e.weight, e.rate, has, want)
		}
	}
}

// TestDeadlineIndexInvariant drives random Start, Remove, Advance, Solve
// and PopDrained sequences through one Net per topology, crossing the
// scratch threshold in both directions, and checks the index after each.
func TestDeadlineIndexInvariant(t *testing.T) {
	const eps = 1e-6
	for ci, cl := range []*platform.Cluster{platform.Grelon(), platform.Big512(), platform.Big1024()} {
		rng := rand.New(rand.NewSource(int64(71 + ci)))
		n := New(cl.LinkCapacities())
		var ids []int
		live := map[int]int{} // member id -> index in ids
		drop := func(id int) {
			i := live[id]
			last := ids[len(ids)-1]
			ids[i] = last
			live[last] = i
			ids = ids[:len(ids)-1]
			delete(live, id)
		}
		var prevLinks []int
		prevCap := 0.0
		now := 0.0
		pops := 0
		for step := 0; step < 3000; step++ {
			// Alternate growing and shrinking phases so the population
			// crosses the scratch threshold both ways.
			starts, removes := 4, 5
			if step/500%2 == 1 {
				starts, removes = 1, 4
			}
			var op string
			switch r := rng.Intn(10); {
			case r < starts && len(ids) < 250:
				op = "Start"
				var links []int
				rateCap := 0.0
				if rng.Intn(40) > 0 {
					src := rng.Intn(cl.P)
					dst := rng.Intn(cl.P - 1)
					if dst >= src {
						dst++
					}
					links, _ = cl.AppendRoute(nil, src, dst)
					rateCap = cl.EffectiveBandwidth(src, dst)
				}
				switch rng.Intn(6) {
				case 0:
					rateCap = 0
				case 1:
					rateCap *= 0.25 + rng.Float64()
				}
				volume := 1 + rng.Float64()*1e8
				if rng.Intn(10) == 0 {
					// Joins the previous flow's entity and never completes:
					// once the finite members drain, the entity's head is
					// infinite and its entry must go.
					links, rateCap, volume = prevLinks, prevCap, math.Inf(1)
				}
				prevLinks, prevCap = links, rateCap
				id := n.Start(links, rateCap, volume)
				live[id] = len(ids)
				ids = append(ids, id)
			case r >= starts && r < removes && len(ids) > 0:
				op = "Remove"
				id := ids[rng.Intn(len(ids))]
				n.Remove(id)
				drop(id)
			case r < 7:
				op = "Solve"
				n.Solve()
			case r < 8:
				op = "Advance"
				n.Solve()
				d := n.NextDeadline(now)
				if math.IsInf(d, 1) {
					break
				}
				dt := (d - now) * (0.3 + 2*rng.Float64()) // under- and overshoot
				n.Advance(dt)
				now += dt
			default:
				op = "PopDrained"
				n.PopDrained(now, eps, func(id int) {
					drop(id)
					pops++
				})
			}
			checkDeadlineIndex(t, n, cl.Name+" "+op)
		}
		if pops == 0 || n.scratchSolves == 0 || n.incrSolves == 0 {
			t.Fatalf("%s: %d completions, %d scratch and %d incremental solves: a regime went unexercised",
				cl.Name, pops, n.scratchSolves, n.incrSolves)
		}
		t.Logf("%s: %d completions, %d scratch, %d full, %d incremental solves",
			cl.Name, pops, n.scratchSolves, n.fullSolves, n.incrSolves)
	}
}
