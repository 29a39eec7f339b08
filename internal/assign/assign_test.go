package assign_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
)

func TestMinCostKnown(t *testing.T) {
	// Classic 3×3 example; optimum is 5 (0→1? let's verify: choose 1,2,0 →
	// 2+3+2=7; 0,1,2 → 1+4+6=11; 1,0,2 → 2+2? ...). Matrix:
	cost := [][]float64{
		{1, 2, 3},
		{2, 4, 6},
		{3, 6, 9},
	}
	// Optimal: row0→col2 (3), row1→col1 (4), row2→col0 (3) = 10.
	asg, total := oracle.MinCost(cost)
	if total != 10 {
		t.Fatalf("total = %g, want 10 (assignment %v)", total, asg)
	}
}

func TestMinCostRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 10, 1, 10},
	}
	asg, total := oracle.MinCost(cost)
	if total != 2 || asg[0] != 1 || asg[1] != 2 {
		t.Fatalf("asg = %v total = %g, want [1 2] / 2", asg, total)
	}
}

func TestMaxWeightKnown(t *testing.T) {
	w := [][]float64{
		{5, 0, 0},
		{0, 5, 0},
		{1, 1, 4},
	}
	asg, total := oracle.MaxWeight(w)
	if total != 14 {
		t.Fatalf("total = %g, want 14 (asg %v)", total, asg)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if asg[i] != want[i] {
			t.Fatalf("asg = %v, want %v", asg, want)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	if asg, total := oracle.MinCost(nil); asg != nil || total != 0 {
		t.Error("empty MinCost should be nil/0")
	}
	if asg, total := oracle.MaxWeight(nil); asg != nil || total != 0 {
		t.Error("empty MaxWeight should be nil/0")
	}
}

// bruteForceMax enumerates all permutations for small n.
func bruteForceMax(w [][]float64) float64 {
	n := len(w)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(-1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			s := 0.0
			for i, j := range perm {
				s += w[i][j]
			}
			if s > best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// Property: Hungarian total equals brute-force optimum for random small
// matrices, and the assignment is a valid permutation.
func TestPropertyMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = math.Floor(r.Float64()*100) / 10
			}
		}
		asg, total := oracle.MaxWeight(w)
		seen := make([]bool, n)
		for _, j := range asg {
			if j < 0 || j >= n || seen[j] {
				return false
			}
			seen[j] = true
		}
		return math.Abs(total-bruteForceMax(w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaxWeight64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 64
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = r.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.MaxWeight(w)
	}
}
