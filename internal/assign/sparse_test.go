package assign

import (
	"math/rand"
	"testing"
)

// denseOf materializes the dense matrix a CSR triple list describes.
func denseOf(n int, rowPtr, cols []int, weights []float64) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for r := 0; r+1 < len(rowPtr); r++ {
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			w[r][cols[k]] = weights[k]
		}
	}
	return w
}

// randBanded builds a random banded CSR instance: each of the first s rows
// carries one contiguous band of positive weights, the rest are empty —
// the shape AlignReceiversScratch generates from the block-overlap structure.
func randBanded(rng *rand.Rand, n int) (rowPtr, cols []int, weights []float64) {
	s := rng.Intn(n + 1)
	rowPtr = []int{0}
	for r := 0; r < s; r++ {
		start := rng.Intn(n)
		width := 1 + rng.Intn(4)
		if rng.Intn(6) == 0 {
			width = 0 // the occasional empty row inside the prefix
		}
		for j := start; j < start+width && j < n; j++ {
			cols = append(cols, j)
			// Small integer grid so equal-weight ties are common: the
			// tie-breaking agreement is the risky part of the equivalence.
			weights = append(weights, float64(1+rng.Intn(4))/4)
		}
		rowPtr = append(rowPtr, len(cols))
	}
	return rowPtr, cols, weights
}

// TestMaxWeightSparseMatchesDense drives the sparse solver against the
// dense oracle on random banded instances, requiring the exact same
// assignment (not merely the same total): the alignment path needs
// bit-identical rank choices for the golden schedules to survive.
func TestMaxWeightSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc Scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(24)
		rowPtr, cols, weights := randBanded(rng, n)
		wantAsg, wantTotal := MaxWeight(denseOf(n, rowPtr, cols, weights))
		gotAsg, gotTotal := MaxWeightSparse(n, rowPtr, cols, weights, &sc)
		if len(gotAsg) != len(wantAsg) {
			t.Fatalf("trial %d: assignment length %d, want %d", trial, len(gotAsg), len(wantAsg))
		}
		for i := range wantAsg {
			if gotAsg[i] != wantAsg[i] {
				t.Fatalf("trial %d (n=%d): row %d assigned to %d, dense oracle says %d\nrowPtr=%v cols=%v w=%v",
					trial, n, i, gotAsg[i], wantAsg[i], rowPtr, cols, weights)
			}
		}
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: total %g, dense oracle %g", trial, gotTotal, wantTotal)
		}
	}
}

// TestMaxWeightSparseLargeBand covers the production shape: a big512-sized
// problem with every row banded (no empty suffix), once with a shared
// scratch and once with nil.
func TestMaxWeightSparseLargeBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	rowPtr := []int{0}
	var cols []int
	var weights []float64
	for r := 0; r < n; r++ {
		start := (r * n) / (n + 3)
		for j := start; j < start+3 && j < n; j++ {
			cols = append(cols, j)
			weights = append(weights, rng.Float64())
		}
		rowPtr = append(rowPtr, len(cols))
	}
	wantAsg, _ := MaxWeight(denseOf(n, rowPtr, cols, weights))
	gotAsg, _ := MaxWeightSparse(n, rowPtr, cols, weights, nil)
	for i := range wantAsg {
		if gotAsg[i] != wantAsg[i] {
			t.Fatalf("row %d assigned to %d, dense oracle says %d", i, gotAsg[i], wantAsg[i])
		}
	}
}

func TestMaxWeightSparseEdgeCases(t *testing.T) {
	if asg, total := MaxWeightSparse(0, nil, nil, nil, nil); asg != nil || total != 0 {
		t.Errorf("empty problem: got (%v, %g)", asg, total)
	}
	// All-empty rows: any permutation is optimal; must match dense exactly.
	wantAsg, _ := MaxWeight([][]float64{{0, 0}, {0, 0}})
	gotAsg, _ := MaxWeightSparse(2, []int{0}, nil, nil, nil)
	for i := range wantAsg {
		if gotAsg[i] != wantAsg[i] {
			t.Fatalf("all-zero: row %d → %d, dense oracle %d", i, gotAsg[i], wantAsg[i])
		}
	}
	for _, bad := range []func(){
		func() { MaxWeightSparse(2, []int{1, 2}, []int{0, 1}, []float64{1, 1}, nil) }, // rowPtr[0] != 0
		func() { MaxWeightSparse(2, []int{0, 1}, []int{0}, []float64{1, 1}, nil) },    // weights mismatch
		func() { MaxWeightSparse(2, []int{0, 2}, []int{1, 0}, []float64{1, 1}, nil) }, // unsorted
		func() { MaxWeightSparse(2, []int{0, 1}, []int{5}, []float64{1}, nil) },       // out of range
		func() { MaxWeightSparse(1, []int{0, 1, 1}, []int{0}, []float64{1}, nil) },    // too many rows
		func() { MaxWeightSparse(2, []int{0, 2}, []int{0, 0}, []float64{1, 1}, nil) }, // duplicate col
		func() { MaxWeightSparse(2, []int{0, 1}, []int{-1}, []float64{1}, nil) },      // negative col
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed CSR input must panic")
				}
			}()
			bad()
		}()
	}
}

// TestScratchReuseAcrossSizes: a scratch grown by a large problem must
// still solve small ones exactly (stale state cleared per call).
func TestScratchReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		rowPtr, cols, weights := randBanded(rng, n)
		wantAsg, _ := MaxWeight(denseOf(n, rowPtr, cols, weights))
		gotAsg, _ := MaxWeightSparse(n, rowPtr, cols, weights, &sc)
		for i := range wantAsg {
			if gotAsg[i] != wantAsg[i] {
				t.Fatalf("trial %d: scratch reuse diverged at row %d", trial, i)
			}
		}
	}
}

// FuzzMaxWeightSparse fuzzes the sparse solver against the dense oracle on
// arbitrary banded instances derived from the fuzz input bytes.
func FuzzMaxWeightSparse(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(99), uint8(16))
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%24 + 1
		rowPtr, cols, weights := randBanded(rng, n)
		wantAsg, _ := MaxWeight(denseOf(n, rowPtr, cols, weights))
		gotAsg, _ := MaxWeightSparse(n, rowPtr, cols, weights, nil)
		for i := range wantAsg {
			if gotAsg[i] != wantAsg[i] {
				t.Fatalf("row %d assigned to %d, dense oracle says %d", i, gotAsg[i], wantAsg[i])
			}
		}
	})
}
