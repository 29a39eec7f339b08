package redist_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/redist"
)

// TestPaperTableI reproduces Table I of the paper exactly: 10 units of
// data redistributed from p=4 to q=5 processors.
func TestPaperTableI(t *testing.T) {
	m := redist.BlockMatrix(10, 4, 5)
	want := [4][5]float64{
		{2, 0.5, 0, 0, 0},
		{0, 1.5, 1, 0, 0},
		{0, 0, 1, 1.5, 0},
		{0, 0, 0, 0.5, 2},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if got := m.At(i, j); math.Abs(got-want[i][j]) > 1e-12 {
				t.Errorf("M[%d][%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestIdentityWhenSameCounts(t *testing.T) {
	// offDiagonal counts the non-zero entries off the main diagonal.
	offDiagonal := func(m redist.Matrix) int {
		n := 0
		m.NonZeros(func(i, j int, v float64) {
			if i != j {
				n++
			}
		})
		return n
	}
	m := redist.BlockMatrix(100, 6, 6)
	if n := offDiagonal(m); n != 0 {
		t.Fatalf("p == q block matrix must be the identity, has %d off-diagonal entries", n)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(m.At(i, i)-100.0/6) > 1e-9 {
			t.Errorf("diag[%d] = %g", i, m.At(i, i))
		}
	}
	if offDiagonal(redist.BlockMatrix(10, 4, 5)) == 0 {
		t.Error("4×5 matrix must not be identity")
	}
}

// Property: conservation — rows sum to total/p, columns to total/q, and
// the whole matrix to total.
func TestPropertyConservation(t *testing.T) {
	f := func(pr, qr uint8, tr uint16) bool {
		p := int(pr)%32 + 1
		q := int(qr)%32 + 1
		total := float64(tr)/7 + 1
		m := redist.BlockMatrix(total, p, q)
		if math.Abs(m.Sum()-total) > 1e-9*total {
			return false
		}
		for i := 0; i < p; i++ {
			if math.Abs(m.RowSum(i)-total/float64(p)) > 1e-9*total {
				return false
			}
		}
		for j := 0; j < q; j++ {
			col := 0.0
			for i := 0; i < p; i++ {
				col += m.At(i, j)
			}
			if math.Abs(col-total/float64(q)) > 1e-9*total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the band structure holds — each sender talks to at most
// ceil(q/p)+1 receivers.
func TestPropertyBandWidth(t *testing.T) {
	f := func(pr, qr uint8) bool {
		p := int(pr)%64 + 1
		q := int(qr)%64 + 1
		m := redist.BlockMatrix(1000, p, q)
		maxPeers := (q+p-1)/p + 1
		for i := 0; i < p; i++ {
			peers := 0
			m.NonZeros(func(ii, j int, v float64) {
				if ii == i {
					peers++
				}
			})
			if peers > maxPeers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlowsMapping(t *testing.T) {
	// 4 senders on procs 10..13, 5 receivers on procs 20..24.
	senders := []int{10, 11, 12, 13}
	receivers := []int{20, 21, 22, 23, 24}
	fs := redist.Flows(10, senders, receivers)
	bytes := 0.0
	for _, f := range fs {
		if f.SrcProc < 10 || f.SrcProc > 13 || f.DstProc < 20 || f.DstProc > 24 {
			t.Errorf("flow endpoints out of range: %+v", f)
		}
		bytes += f.Bytes
	}
	if math.Abs(bytes-10) > 1e-12 {
		t.Errorf("total flow bytes = %g, want 10", bytes)
	}
	// Disjoint sets: no local traffic.
	if lb := redist.LocalBytes(10, senders, receivers); lb != 0 {
		t.Errorf("LocalBytes = %g, want 0 for disjoint sets", lb)
	}
}

func TestSameSetFreeRedistribution(t *testing.T) {
	procs := []int{4, 7, 9}
	if !redist.SameSet(procs, []int{9, 4, 7}) {
		t.Error("SameSet should be order-insensitive")
	}
	if redist.SameSet(procs, []int{4, 7}) || redist.SameSet(procs, []int{4, 7, 8}) {
		t.Error("SameSet false positives")
	}
	// Same set, same order: everything is local.
	if rb := redist.RemoteBytes(99, procs, procs); rb != 0 {
		t.Errorf("RemoteBytes = %g, want 0 on identical rank orders", rb)
	}
}

// TestSameSetBitsetAgreesWithMultiset cross-checks the branch-free bitset
// comparison against the sort-based multiset semantics on random lists,
// including the fallback triggers: duplicated entries and ids ≥ 1024.
func TestSameSetBitsetAgreesWithMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randList := func(n, span int, dup bool) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(span)
		}
		if !dup { // make entries distinct by offsetting collisions
			seen := map[int]bool{}
			for i := range out {
				for seen[out[i]] {
					out[i] = (out[i] + 1) % span
				}
				seen[out[i]] = true
			}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		span := 40
		if trial%5 == 0 {
			span = 5000 // out of bitset range: generic path
		}
		n := 1 + rng.Intn(12)
		a := randList(n, span, trial%3 == 0)
		var b []int
		switch trial % 4 {
		case 0: // permutation of a
			b = append([]int(nil), a...)
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		case 1: // one entry perturbed
			b = append([]int(nil), a...)
			b[rng.Intn(len(b))]++
		default:
			b = randList(n, span, trial%3 == 0)
		}
		if got, want := redist.SameSet(a, b), redist.SameMultiset(a, b); got != want {
			t.Fatalf("SameSet(%v, %v) = %v, multiset says %v", a, b, got, want)
		}
	}
	// Length mismatch short-circuits.
	if redist.SameSet([]int{1, 2}, []int{1, 2, 3}) {
		t.Error("SameSet must reject different lengths")
	}
	// Duplicates must stay multiset-compared: same set, same length,
	// different multiplicities.
	if redist.SameSet([]int{1, 1, 2}, []int{1, 2, 2}) {
		t.Error("SameSet must distinguish multiplicities")
	}
}

func TestOverlapCounts(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{0, 1, 2, 3}, []int{2, 3, 4, 5}, 2},
		{[]int{0, 1}, []int{2, 3}, 0},
		{[]int{5, 9, 1023}, []int{1023, 5, 9}, 3},
		{nil, []int{1}, 0},
		{[]int{2000, 1, 3000}, []int{3000, 7}, 1}, // generic fallback
	}
	for _, c := range cases {
		if got := redist.Overlap(c.a, c.b); got != c.want {
			t.Errorf("Overlap(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := redist.Overlap(c.b, c.a); got != c.want {
			t.Errorf("Overlap(%v, %v) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestAlignReceiversDisjointFastPath(t *testing.T) {
	// Disjoint sender/receiver sets keep the receiver order untouched —
	// the bitset early exit must agree with the full alignment machinery.
	senders := []int{0, 1, 2}
	receivers := []int{10, 11, 12, 13}
	for _, mode := range allModes {
		got := mode.align(nil, 30, senders, receivers, nil)
		for i, p := range got {
			if p != receivers[i] {
				t.Fatalf("mode %v: disjoint alignment reordered receivers: %v", mode, got)
			}
		}
	}
}

func TestAlignReceiversRecoversIdentity(t *testing.T) {
	// Receiver set equals sender set but scrambled; alignment must recover
	// the fully-local order.
	senders := []int{3, 1, 4, 1 + 4, 9, 2} // procs 3,1,4,5,9,2
	receivers := []int{9, 2, 3, 5, 1, 4}
	for _, mode := range allModes {
		got := mode.align(nil, 600, senders, receivers, nil)
		for r, p := range got {
			if senders[r] != p {
				t.Errorf("mode %v: rank %d = proc %d, want %d", mode, r, p, senders[r])
			}
		}
		if rb := redist.RemoteBytes(600, senders, got); rb != 0 {
			t.Errorf("mode %v: RemoteBytes = %g after alignment, want 0", mode, rb)
		}
	}
}

func TestAlignReceiversPartialOverlap(t *testing.T) {
	senders := []int{0, 1, 2, 3}
	receivers := []int{7, 2, 8, 1, 9} // shares procs 1 and 2
	aligned := redist.AlignReceivers(10, senders, receivers)
	// Alignment must not lose or duplicate processors.
	if !redist.SameSet(aligned, receivers) {
		t.Fatalf("aligned %v is not a permutation of %v", aligned, receivers)
	}
	before := redist.LocalBytes(10, senders, receivers)
	after := redist.LocalBytes(10, senders, aligned)
	if after < before-1e-12 {
		t.Errorf("alignment decreased local bytes: %g -> %g", before, after)
	}
	if after <= 0 {
		t.Errorf("expected some local traffic after alignment, got %g", after)
	}
}

// Property: Hungarian alignment is at least as good as greedy and as no
// alignment; and both engines return permutations.
func TestPropertyAlignmentDominance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nProcs := 12
		p := 1 + r.Intn(6)
		q := 1 + r.Intn(6)
		perm := r.Perm(nProcs)
		senders := perm[:p]
		perm2 := r.Perm(nProcs)
		receivers := perm2[:q]
		total := 100.0
		hung := redist.AlignReceiversExact(nil, total, senders, receivers, nil)
		greedy := modeGreedy.align(nil, total, senders, receivers, nil)
		if !redist.SameSet(hung, receivers) || !redist.SameSet(greedy, receivers) {
			return false
		}
		lbH := redist.LocalBytes(total, senders, hung)
		lbG := redist.LocalBytes(total, senders, greedy)
		lbN := redist.LocalBytes(total, senders, receivers)
		return lbH >= lbG-1e-9 && lbH >= lbN-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBlockMatrix120x120(b *testing.B) {
	for i := 0; i < b.N; i++ {
		redist.BlockMatrix(1e9, 120, 120)
	}
}

func BenchmarkAlignHungarian32(b *testing.B) {
	senders := make([]int, 32)
	receivers := make([]int, 32)
	for i := range senders {
		senders[i] = i
		receivers[i] = 31 - i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		redist.AlignReceiversExact(nil, 1e9, senders, receivers, nil)
	}
}

// TestVisitBlocksMatchesBlockMatrix: the allocation-free traversal must
// produce exactly the non-zeros of the materialized matrix, in the same
// row-major order.
func TestVisitBlocksMatchesBlockMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		p := 1 + rng.Intn(64)
		q := 1 + rng.Intn(64)
		total := rng.Float64() * 1e9
		m := redist.BlockMatrix(total, p, q)
		type entry struct {
			i, j int
			v    float64
		}
		var want, got []entry
		m.NonZeros(func(i, j int, v float64) { want = append(want, entry{i, j, v}) })
		redist.VisitBlocks(total, p, q, func(i, j int, v float64) { got = append(got, entry{i, j, v}) })
		if len(got) != len(want) {
			t.Fatalf("p=%d q=%d: %d entries, want %d", p, q, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("p=%d q=%d entry %d: %+v, want %+v", p, q, k, got[k], want[k])
			}
		}
	}
}

func TestVisitBlocksPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("VisitBlocks(10, 0, 5) should panic")
		}
	}()
	redist.VisitBlocks(10, 0, 5, func(i, j int, v float64) {})
}
