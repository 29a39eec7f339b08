package flownet

// Properties of the level log's per-link delta lists: every level's stored
// flush equals what walking its fix entries would flush, the checkpoints
// and the final solver state are exactly checkpoint 0 plus the logged
// deltas, and the merge walk recommits a clean level whole or drops it —
// never a part of it.

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// entryDeltas is the entry-walking oracle for a level's flush: it
// accumulates the route weight of the level's fixed entities in entry
// order, recording links in first-touch order — the order flushLevel
// applies them in. Entries of a trusted log are live and unchanged since
// their fix, so the entities' current routes and weights are those the
// level fixed.
func entryDeltas(n *Net, lv *level) []linkDelta {
	var out []linkDelta
	pos := map[int32]int{}
	for _, f := range n.fixes[lv.fixStart : lv.fixStart+lv.nfix] {
		e := &n.ents[f.ent]
		for _, l := range e.links {
			i, ok := pos[l]
			if !ok {
				i = len(out)
				pos[l] = i
				out = append(out, linkDelta{link: l})
			}
			out[i].w += e.weight
		}
	}
	return out
}

// flushOracle applies deltas with the solver's flush arithmetic.
func flushOracle(rem []float64, wcnt []int32, ds []linkDelta, r float64) {
	for _, d := range ds {
		rem[d.link] -= float64(d.w) * r
		if rem[d.link] < 0 {
			rem[d.link] = 0
		}
		wcnt[d.link] -= d.w
	}
}

// checkDeltaLog verifies a trusted log after a logged solve: contiguous
// arenas, stored deltas equal to the entry-walking oracle's, every live
// entity fixed exactly once with its current generation, and
// checkpoint 0 plus the deltas reproducing every later checkpoint and the
// final (rem, wcnt) bit for bit.
func checkDeltaLog(t *testing.T, n *Net) {
	t.Helper()
	nl := len(n.caps)
	var fixEnd, dEnd int32
	for li := range n.levels {
		lv := &n.levels[li]
		if lv.fixStart != fixEnd || lv.dStart != dEnd {
			t.Fatalf("level %d: fixes at %d, deltas at %d; previous level ended at %d, %d",
				li, lv.fixStart, lv.dStart, fixEnd, dEnd)
		}
		fixEnd, dEnd = lv.fixStart+lv.nfix, lv.dStart+lv.nd
		want := entryDeltas(n, lv)
		got := n.deltas[lv.dStart:dEnd]
		if len(got) != len(want) {
			t.Fatalf("level %d: %d stored deltas, entries touch %d links", li, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("level %d delta %d: stored %+v, entries sum to %+v", li, i, got[i], want[i])
			}
		}
		for _, f := range n.fixes[lv.fixStart:fixEnd] {
			if n.genByID[f.ent] != f.gen || n.fixedLevel[f.ent] != int32(li) {
				t.Fatalf("level %d: stale entry for entity %d (gen %d/%d, fixedLevel %d)",
					li, f.ent, f.gen, n.genByID[f.ent], n.fixedLevel[f.ent])
			}
		}
	}
	if int(fixEnd) != len(n.fixes) || int(dEnd) != len(n.deltas) {
		t.Fatalf("log covers %d fixes and %d deltas of %d and %d", fixEnd, dEnd, len(n.fixes), len(n.deltas))
	}
	// Every live solvable entity holds exactly one entry: a level dropped
	// with surviving entries would leave them out of the log.
	if got := len(n.fixes); got != n.solvable {
		t.Fatalf("log holds %d fix entries for %d solvable entities", got, n.solvable)
	}

	// Checkpoints hold consumed weight: the restored count is
	// linkWeight − consumed.
	rem := append([]float64(nil), n.ckRem[:nl]...)
	wcnt := make([]int32, nl)
	for l := range wcnt {
		wcnt[l] = n.linkWeight[l] - n.ckUsed[l]
	}
	for li := range n.levels {
		if c := li / ckStride; li%ckStride == 0 && c > 0 && c < n.nCk {
			for _, l := range n.liveLinks {
				ckR, ckW := n.ckRem[c*nl+int(l)], n.linkWeight[l]-n.ckUsed[c*nl+int(l)]
				if ckR != rem[l] || ckW != wcnt[l] {
					t.Fatalf("checkpoint %d link %d: (%v, %d), replay gives (%v, %d)",
						c, l, ckR, ckW, rem[l], wcnt[l])
				}
			}
		}
		lv := &n.levels[li]
		flushOracle(rem, wcnt, entryDeltas(n, lv), lv.value)
	}
	for _, l := range n.liveLinks {
		if n.rem[l] != rem[l] || n.wcnt[l] != wcnt[l] {
			t.Fatalf("link %d: solver state (%v, %d), checkpoint 0 plus the log gives (%v, %d)",
				l, n.rem[l], n.wcnt[l], rem[l], wcnt[l])
		}
	}
}

// TestDeltaLogProperties drives random add/remove batches on the grelon,
// big512 and big1024 link vectors, above the scratch threshold, checking
// the log after every solve and classifying each incremental solve's
// walked levels into recommitted-whole, orphaned and dropped ones. Only
// cap levels may be dropped.
func TestDeltaLogProperties(t *testing.T) {
	var whole, orphaned, dropped int
	for ci, cl := range []*platform.Cluster{platform.Grelon(), platform.Big512(), platform.Big1024()} {
		rng := rand.New(rand.NewSource(int64(31 + ci)))
		n := New(cl.LinkCapacities())
		var ids []int
		add := func() {
			src := rng.Intn(cl.P)
			dst := rng.Intn(cl.P - 1)
			if dst >= src {
				dst++
			}
			links, _ := cl.AppendRoute(nil, src, dst)
			rateCap := cl.EffectiveBandwidth(src, dst)
			switch rng.Intn(8) {
			case 0:
				rateCap = 0
			case 1:
				rateCap *= 0.25 + rng.Float64()
			}
			ids = append(ids, n.Start(links, rateCap, 1e6))
		}
		for len(ids) < 150 {
			add()
		}
		for step := 0; step < 400; step++ {
			old := append([]level(nil), n.levels...)
			incr, rec, orph := n.incrSolves, n.levelsRecommitted, n.orphanLevels
			for b := 1 + rng.Intn(3); b > 0; b-- {
				if rng.Intn(2) == 0 && len(ids) > 60 {
					i := rng.Intn(len(ids))
					n.Remove(ids[i])
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				} else {
					add()
				}
			}
			n.Solve()
			if n.solvable <= scratchThreshold || !n.logOK {
				t.Fatalf("%s step %d: population left the logged regime", cl.Name, step)
			}
			checkDeltaLog(t, n)
			if n.incrSolves == incr {
				continue
			}
			walked := old[len(old)-len(n.oldLevels):]
			r, o := n.levelsRecommitted-rec, n.orphanLevels-orph
			d := len(walked) - r - o
			capLevels := 0
			for _, lv := range walked {
				if lv.link < 0 {
					capLevels++
				}
			}
			if d < 0 || d > capLevels {
				t.Fatalf("%s step %d: %d walked levels, %d recommitted, %d orphaned: %d dropped, but only %d cap levels",
					cl.Name, step, len(walked), r, o, d, capLevels)
			}
			whole += r
			orphaned += o
			dropped += d
		}
	}
	t.Logf("walked levels: %d recommitted whole, %d orphaned, %d dropped", whole, orphaned, dropped)
	if whole == 0 || orphaned == 0 || dropped == 0 {
		t.Errorf("walk never exercised every kind: %d whole, %d orphaned, %d dropped", whole, orphaned, dropped)
	}
}
