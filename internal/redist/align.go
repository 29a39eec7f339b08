// Receiver rank-order alignment (§II-A self-communication maximization).
//
// The benefit matrix of an alignment — benefit[s][j] = bytes kept local if
// shared processor s takes receiver rank j — inherits the band structure of
// the 1-D block communication matrix: sender rank r only overlaps a
// contiguous run of ⌈q/p⌉+1 receiver ranks, so the q×q assignment problem
// has O(p+q) non-zeros, not q². The alignment engine enumerates exactly
// that band (the same arithmetic VisitBlocks uses, so weights are
// bit-identical to the materialized matrix), solves it exactly through
// assign.MaxWeightSparse up to AlignExactCap receivers and greedily above,
// and keeps all working state in an AlignScratch, which makes the mapper's
// candidate-evaluation loop allocation-free.
package redist

import (
	"slices"
	"sort"

	"repro/internal/assign"
)

// AlignExactCap is the largest receiver count for which alignment runs the
// exact Hungarian assignment; wider redistributions take the deterministic
// greedy assignment (shared processors to their best free receiver rank in
// decreasing-benefit order). Hungarian is O(q³) worst case while greedy is
// O((p+q)·log(p+q)) on the banded benefit structure, and the optimality gap
// shrinks with q (most band weights tie). The ablation's cap ladder
// (docs/ablation_pr10.json) measured 32 as the point where the Hungarian
// tail of wide redistributions collapses (big512 mapping p99 from ~1.04 s
// to ~3 ms) at a worst makespan delta of 0.011%.
const AlignExactCap = 32

// alignCand is one greedy candidate: shared processor proc kept b bytes
// local if it takes receiver rank j.
type alignCand struct {
	proc, j int
	b       float64
}

// alignCands orders candidates by decreasing benefit with (proc, j)
// tie-breaks — the deterministic greedy consumption order. It implements
// sort.Interface on the scratch-held slice so sorting stays allocation-free
// (sort.Slice would allocate its closure and reflect swapper per call).
type alignCands struct{ c []alignCand }

func (a *alignCands) Len() int      { return len(a.c) }
func (a *alignCands) Swap(i, j int) { a.c[i], a.c[j] = a.c[j], a.c[i] }
func (a *alignCands) Less(i, j int) bool {
	if a.c[i].b != a.c[j].b {
		return a.c[i].b > a.c[j].b
	}
	if a.c[i].proc != a.c[j].proc {
		return a.c[i].proc < a.c[j].proc
	}
	return a.c[i].j < a.c[j].j
}

// AlignScratch owns the working state of AlignReceiversScratch: processor-
// indexed rank/assignment slices (replacing the per-call maps), the CSR
// triples of the banded benefit matrix, the receiver-rank occupancy marks,
// the greedy candidate list and the Hungarian solver scratch. Reusing one
// scratch across calls makes alignment allocation-free in steady state.
// The zero value is ready; an AlignScratch is not safe for concurrent use.
type AlignScratch struct {
	rank   []int32 // by processor id: sender rank + 1 (0 = not a sender)
	chosen []int32 // by processor id: assigned receiver rank + 1 (0 = none)
	shared []int   // processors in both sets, in receiver order
	rowPtr []int   // CSR of the banded benefit matrix (rows = shared procs)
	cols   []int
	wts    []float64
	taken  []bool // by receiver rank: slot already filled
	cands  alignCands
	asg    assign.Scratch

	// Solve counters, accumulated across calls sharing this scratch and
	// read by the mapper's observability snapshot: exact Hungarian solves
	// and greedy solves (receiver sets wider than AlignExactCap). Early
	// exits (empty or disjoint receiver sets) don't count — nothing was
	// solved.
	NExact  uint64
	NGreedy uint64
}

// ResetCounters zeroes the scratch's solve counters.
func (sc *AlignScratch) ResetCounters() { sc.NExact, sc.NGreedy = 0, 0 }

// ensure sizes the id-indexed and rank-indexed slices. Entries of rank and
// chosen are zero outside a call (the epilogue clears exactly the entries
// it set), so growth is the only time they are written wholesale.
func (sc *AlignScratch) ensure(ids, q int) {
	if len(sc.rank) < ids {
		sc.rank = make([]int32, ids)
		sc.chosen = make([]int32, ids)
	}
	if cap(sc.taken) < q {
		sc.taken = make([]bool, q)
	}
	sc.taken = sc.taken[:q]
	for i := range sc.taken {
		sc.taken[i] = false
	}
}

// AlignReceiversScratch returns a permutation of receivers (a rank order)
// chosen to maximize the bytes that stay local given the sender rank
// order: exactly up to AlignExactCap receivers, greedily above. Only
// processors present in both lists can produce local traffic; the others
// fill the remaining ranks in their original relative order. Processor ids
// must lie in [0, platform.MaxProcs), as on every validated cluster: the
// scratch is indexed by id.
//
// The aligned rank order is written into dst (grown as needed; pass nil to
// allocate), so hot mapping paths can recycle candidate buffers instead of
// allocating one per evaluated placement. dst must not alias receivers. The returned slice always has len(receivers) elements,
// every one of them written, and never shares memory with receivers. With
// a non-nil sc the call allocates nothing beyond dst growth; a nil scratch
// uses a temporary one.
func AlignReceiversScratch(dst []int, total float64, senders, receivers []int, sc *AlignScratch) []int {
	return alignReceivers(dst, total, senders, receivers, len(receivers) > AlignExactCap, sc)
}

// AlignReceiversExact is AlignReceiversScratch with the exact Hungarian
// assignment at every width: the oracle the size-selected policy is
// measured against (core.MapReference). Production code never calls it.
func AlignReceiversExact(dst []int, total float64, senders, receivers []int, sc *AlignScratch) []int {
	return alignReceivers(dst, total, senders, receivers, false, sc)
}

// alignReceivers is the shared engine: greedy selects the greedy
// assignment, otherwise the exact Hungarian one.
func alignReceivers(dst []int, total float64, senders, receivers []int, greedy bool, sc *AlignScratch) []int {
	if len(receivers) == 0 {
		return append(dst[:0], receivers...)
	}
	if Overlap(senders, receivers) == 0 {
		// Disjoint sets cannot keep any byte local: nothing to align, and
		// the bitset test skips the rank index and band walk entirely.
		return append(dst[:0], receivers...)
	}
	maxID := max(slices.Max(senders), slices.Max(receivers))
	if sc == nil {
		sc = &AlignScratch{}
	}
	p, q := len(senders), len(receivers)
	sc.ensure(maxID+1, q)
	for r, pr := range senders {
		sc.rank[pr] = int32(r) + 1
	}
	sc.shared = sc.shared[:0]
	for _, pr := range receivers {
		if sc.rank[pr] != 0 {
			sc.shared = append(sc.shared, pr)
		}
	}

	// CSR of the banded benefit matrix: row si holds the non-zero overlaps
	// of shared processor si's sender rank, enumerated with BlockMatrix's
	// exact integer-overlap arithmetic (same expressions, same values).
	sc.rowPtr = append(sc.rowPtr[:0], 0)
	sc.cols = sc.cols[:0]
	sc.wts = sc.wts[:0]
	unit := total / float64(p*q)
	for _, pr := range sc.shared {
		r := int(sc.rank[pr]) - 1
		lo, hi := r*q, (r+1)*q
		jLast := (hi - 1) / p
		for j := lo / p; j <= jLast; j++ {
			rlo, rhi := j*p, (j+1)*p
			if ov := min(hi, rhi) - max(lo, rlo); ov > 0 {
				sc.cols = append(sc.cols, j)
				sc.wts = append(sc.wts, float64(ov)*unit)
			}
		}
		sc.rowPtr = append(sc.rowPtr, len(sc.cols))
	}

	if greedy {
		sc.NGreedy++
		sc.cands.c = sc.cands.c[:0]
		for si, pr := range sc.shared {
			for k := sc.rowPtr[si]; k < sc.rowPtr[si+1]; k++ {
				// Positive benefits only, mirroring the dense path: with a
				// degenerate non-positive total the whole band is ≤ 0 and
				// greedy must leave the receiver order untouched.
				if sc.wts[k] > 0 {
					sc.cands.c = append(sc.cands.c, alignCand{proc: pr, j: sc.cols[k], b: sc.wts[k]})
				}
			}
		}
		sort.Sort(&sc.cands)
		for _, c := range sc.cands.c {
			if sc.chosen[c.proc] != 0 || sc.taken[c.j] {
				continue
			}
			sc.chosen[c.proc] = int32(c.j) + 1
			sc.taken[c.j] = true
		}
		for i := range sc.taken {
			sc.taken[i] = false // reused below for the slot fill
		}
	} else {
		sc.NExact++
		// Square q×q problem: rows are receiver slots; the first
		// len(shared) rows are the shared processors, the rest are
		// implicit all-zero rows the sparse solver never stores.
		asg, _ := assign.MaxWeightSparse(q, sc.rowPtr, sc.cols, sc.wts, &sc.asg)
		for si, pr := range sc.shared {
			sc.chosen[pr] = int32(asg[si]) + 1
		}
	}

	var out []int
	if cap(dst) >= q {
		out = dst[:q]
	} else {
		out = make([]int, q)
	}
	for _, pr := range sc.shared {
		if cr := sc.chosen[pr]; cr != 0 {
			out[cr-1] = pr
			sc.taken[cr-1] = true
		}
	}
	slot := 0
	for _, pr := range receivers {
		if sc.chosen[pr] != 0 {
			continue
		}
		for sc.taken[slot] {
			slot++
		}
		out[slot] = pr
		sc.taken[slot] = true
	}
	for _, pr := range senders {
		sc.rank[pr] = 0
	}
	for _, pr := range sc.shared {
		sc.chosen[pr] = 0
	}
	return out
}
