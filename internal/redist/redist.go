// Package redist implements the 1-D block data redistribution model of
// §II-A of the paper.
//
// A task working on an amount of data D mapped onto p processors gives each
// of them D/p contiguous units (one-dimensional block distribution). When a
// successor runs on q processors, the communication matrix M (p×q) is
// obtained by intersecting the two block decompositions: M[i][j] is the
// overlap between sender rank i's interval [i·D/p, (i+1)·D/p) and receiver
// rank j's interval [j·D/q, (j+1)·D/q). Table I of the paper (10 units,
// p=4 → q=5) is reproduced exactly by BlockMatrix and asserted in the
// tests.
//
// Two properties matter to the schedulers:
//
//   - If the successor runs on the *same processor set with the same rank
//     order* (p = q), the matrix is the identity: every transfer is local
//     and the redistribution costs nothing. This is the assumption that
//     RATS exploits by packing/stretching allocations onto a predecessor's
//     exact processor set.
//   - When the sets merely intersect, the receiver rank order is a free
//     variable; AlignReceivers permutes it to maximize the number of bytes
//     that stay on-node ("self communications"), optimally via a Hungarian
//     assignment or greedily.
package redist

import (
	"math/bits"
	"sort"
)

// Matrix is a p×q block-redistribution communication matrix in rank space.
// It is stored banded: row i only overlaps a contiguous range of columns,
// so a p×q matrix holds O(p+q) non-zeros.
type Matrix struct {
	P, Q  int
	Total float64 // total amount of data redistributed (bytes or units)

	rowStart []int // first non-zero column of each row
	rowVals  [][]float64
}

// BlockMatrix builds the communication matrix for redistributing total
// units of data from a p-processor 1-D block layout to a q-processor one.
//
// Overlaps are computed in exact integer arithmetic: scaling positions by
// p·q makes sender rank i cover [i·q, (i+1)·q) and receiver rank j cover
// [j·p, (j+1)·p) in units of total/(p·q).
func BlockMatrix(total float64, p, q int) Matrix {
	if p <= 0 || q <= 0 {
		panic("redist: BlockMatrix requires positive p and q")
	}
	m := Matrix{P: p, Q: q, Total: total,
		rowStart: make([]int, p), rowVals: make([][]float64, p)}
	// Each row's band is contiguous and VisitBlocks emits it in order, so
	// the first entry of a row fixes rowStart and the rest append.
	VisitBlocks(total, p, q, func(i, j int, v float64) {
		if m.rowVals[i] == nil {
			m.rowStart[i] = j
		}
		m.rowVals[i] = append(m.rowVals[i], v)
	})
	return m
}

// VisitBlocks calls fn for every non-zero entry of the p×q block
// communication matrix for total units of data, in row-major order,
// without materializing the matrix. It is the allocation-free equivalent
// of BlockMatrix followed by NonZeros, for hot paths that only need one
// pass over the O(p+q) non-zeros (e.g. the scheduler's redistribution
// estimates).
func VisitBlocks(total float64, p, q int, fn func(i, j int, v float64)) {
	if p <= 0 || q <= 0 {
		panic("redist: VisitBlocks requires positive p and q")
	}
	unit := total / float64(p*q)
	for i := 0; i < p; i++ {
		// Sender i covers scaled interval [i·q, (i+1)·q); receiver j covers
		// [j·p, (j+1)·p), in units of total/(p·q) (see BlockMatrix).
		lo, hi := i*q, (i+1)*q
		jLast := (hi - 1) / p
		for j := lo / p; j <= jLast; j++ {
			rlo, rhi := j*p, (j+1)*p
			if ov := min(hi, rhi) - max(lo, rlo); ov > 0 {
				fn(i, j, float64(ov)*unit)
			}
		}
	}
}

// At returns M[i][j].
func (m *Matrix) At(i, j int) float64 {
	off := j - m.rowStart[i]
	if off < 0 || off >= len(m.rowVals[i]) {
		return 0
	}
	return m.rowVals[i][off]
}

// RowSum returns the amount of data sender rank i ships (its block size,
// total/p, including any locally-kept part).
func (m *Matrix) RowSum(i int) float64 {
	s := 0.0
	for _, v := range m.rowVals[i] {
		s += v
	}
	return s
}

// Sum returns the total data volume in the matrix (= Total).
func (m *Matrix) Sum() float64 {
	s := 0.0
	for i := 0; i < m.P; i++ {
		s += m.RowSum(i)
	}
	return s
}

// NonZeros calls fn for every non-zero entry.
func (m *Matrix) NonZeros(fn func(i, j int, v float64)) {
	for i := 0; i < m.P; i++ {
		for off, v := range m.rowVals[i] {
			if v > 0 {
				fn(i, m.rowStart[i]+off, v)
			}
		}
	}
}

// Flow is one point-to-point transfer between physical processors.
// SrcProc == DstProc denotes a local copy (free under the paper's model).
type Flow struct {
	SrcProc, DstProc int
	Bytes            float64
}

// Flows expands the communication matrix for total units of data from the
// physical sender processors (in rank order) to the physical receiver
// processors (in rank order) into point-to-point flows, merging duplicate
// (src,dst) pairs. Local flows are included; callers that only care about
// wire traffic can skip entries with SrcProc == DstProc.
func Flows(total float64, senders, receivers []int) []Flow {
	m := BlockMatrix(total, len(senders), len(receivers))
	var fs []Flow
	seen := make(map[[2]int]int)
	m.NonZeros(func(i, j int, v float64) {
		key := [2]int{senders[i], receivers[j]}
		if k, ok := seen[key]; ok {
			fs[k].Bytes += v
			return
		}
		seen[key] = len(fs)
		fs = append(fs, Flow{SrcProc: senders[i], DstProc: receivers[j], Bytes: v})
	})
	return fs
}

// LocalBytes returns the number of units that stay on-node for the given
// physical rank orders.
func LocalBytes(total float64, senders, receivers []int) float64 {
	local := 0.0
	for _, f := range Flows(total, senders, receivers) {
		if f.SrcProc == f.DstProc {
			local += f.Bytes
		}
	}
	return local
}

// RemoteBytes returns the number of units that must cross the network.
func RemoteBytes(total float64, senders, receivers []int) float64 {
	return total - LocalBytes(total, senders, receivers)
}

// setWords sizes the stack bitsets used for processor-set comparisons:
// P ≤ 1024 fits in 16 machine words, covering every preset up to big1024.
const setWords = 16

// BitsetMaxP is the largest processor id (exclusive) the stack bitsets
// cover; callers with bigger custom clusters need their own fallback to
// stay allocation-free (the generic paths here allocate).
const BitsetMaxP = setWords * 64

// bitset1024 is a fixed-size processor bitset. add reports whether the
// processor was newly inserted; an out-of-range id reports false with ok
// unset, routing the caller to the generic fallback.
type bitset1024 [setWords]uint64

func (s *bitset1024) add(p int) (fresh, ok bool) {
	if uint(p) >= setWords*64 {
		return false, false
	}
	w, bit := p>>6, uint64(1)<<(p&63)
	if s[w]&bit != 0 {
		return false, true
	}
	s[w] |= bit
	return true, true
}

// SameSet reports whether two processor lists contain the same processors
// (as sets). Together with equal lengths this is the paper's zero-cost
// redistribution condition. Duplicate-free lists with processor ids below
// 1024 — every list the schedulers produce — compare branch-free through
// stack bitsets; anything else takes the sort-based multiset path.
func SameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	var aw, bw bitset1024
	for _, p := range a {
		if fresh, ok := aw.add(p); !fresh || !ok {
			return sameMultiset(a, b)
		}
	}
	for _, p := range b {
		if fresh, ok := bw.add(p); !fresh || !ok {
			return sameMultiset(a, b)
		}
	}
	return aw == bw
}

// sameMultiset is the general sort-based comparison, kept for duplicated
// entries and out-of-range ids (custom clusters beyond 1024 processors).
func sameMultiset(a, b []int) bool {
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Overlap counts the distinct processors present in both lists, branch-
// free via word-wise intersection popcounts when the ids fit the stack
// bitsets (falling back to a map for exotic inputs). AlignReceivers uses
// it to skip alignment work for disjoint sender/receiver sets.
func Overlap(a, b []int) int {
	var aw, bw bitset1024
	for _, p := range a {
		if _, ok := aw.add(p); !ok {
			return overlapGeneric(a, b)
		}
	}
	for _, p := range b {
		if _, ok := bw.add(p); !ok {
			return overlapGeneric(a, b)
		}
	}
	n := 0
	for w := range aw {
		n += bits.OnesCount64(aw[w] & bw[w])
	}
	return n
}

func overlapGeneric(a, b []int) int {
	in := make(map[int]bool, len(a))
	for _, p := range a {
		in[p] = true
	}
	n := 0
	for _, p := range b {
		if in[p] {
			n++
			in[p] = false
		}
	}
	return n
}

// Alignment (the §II-A receiver rank-order optimization) lives in align.go.
