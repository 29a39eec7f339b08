package oracle

import (
	"sort"

	"repro/internal/redist"
)

// AlignReceivers is the original map-and-matrix receiver alignment: the
// dense benefit matrix of redist.BlockMatrix, solved by MaxWeight, or
// greedily (shared processors to their best free receiver rank in
// decreasing-benefit order, ties by processor then rank) when greedy is
// set. redist's banded sparse engine must return identical rank orders.
func AlignReceivers(dst []int, total float64, senders, receivers []int, greedy bool) []int {
	senderRank := make(map[int]int, len(senders))
	for r, p := range senders {
		senderRank[p] = r
	}
	var shared []int // processors in both sets
	for _, p := range receivers {
		if _, ok := senderRank[p]; ok {
			shared = append(shared, p)
		}
	}
	if len(shared) == 0 {
		return append(dst[:0], receivers...)
	}
	m := redist.BlockMatrix(total, len(senders), len(receivers))
	q := len(receivers)

	// benefit[s][j]: bytes kept local if shared proc s takes receiver rank j.
	benefit := func(proc, j int) float64 { return m.At(senderRank[proc], j) }

	rankOf := make(map[int]int, len(shared)) // proc -> chosen receiver rank
	if greedy {
		type cand struct {
			proc, j int
			b       float64
		}
		var cands []cand
		for _, p := range shared {
			for j := 0; j < q; j++ {
				if b := benefit(p, j); b > 0 {
					cands = append(cands, cand{p, j, b})
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].b != cands[b].b {
				return cands[a].b > cands[b].b
			}
			if cands[a].proc != cands[b].proc {
				return cands[a].proc < cands[b].proc
			}
			return cands[a].j < cands[b].j
		})
		usedRank := make([]bool, q)
		for _, c := range cands {
			if _, done := rankOf[c.proc]; done || usedRank[c.j] {
				continue
			}
			rankOf[c.proc] = c.j
			usedRank[c.j] = true
		}
	} else {
		// Square |q|×|q| problem: rows are receiver slots; the first
		// len(shared) rows are the shared processors, the rest are dummy
		// (zero benefit everywhere).
		w := make([][]float64, q)
		for i := range w {
			w[i] = make([]float64, q)
		}
		for si, p := range shared {
			for j := 0; j < q; j++ {
				w[si][j] = benefit(p, j)
			}
		}
		asg, _ := MaxWeight(w)
		for si, p := range shared {
			rankOf[p] = asg[si]
		}
	}

	var out []int
	if cap(dst) >= q {
		out = dst[:q]
	} else {
		out = make([]int, q)
	}
	taken := make([]bool, q)
	placed := make(map[int]bool, len(rankOf))
	for p, r := range rankOf {
		out[r] = p
		taken[r] = true
		placed[p] = true
	}
	slot := 0
	for _, p := range receivers {
		if placed[p] {
			continue
		}
		for taken[slot] {
			slot++
		}
		out[slot] = p
		taken[slot] = true
	}
	return out
}
