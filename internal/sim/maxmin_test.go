package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
)

func TestMaxMinSingleFlow(t *testing.T) {
	rates := oracle.MaxMin([]float64{100}, [][]int{{0}}, nil)
	if rates[0] != 100 {
		t.Errorf("rate = %g, want 100", rates[0])
	}
}

func TestMaxMinEqualSharing(t *testing.T) {
	rates := oracle.MaxMin([]float64{100}, [][]int{{0}, {0}, {0}, {0}}, nil)
	for i, r := range rates {
		if math.Abs(r-25) > 1e-9 {
			t.Errorf("rate[%d] = %g, want 25", i, r)
		}
	}
}

// Classic parking-lot / dumbbell: flow A uses links 0 and 1; flow B uses
// link 0 only; flow C uses link 1 only. Link 0 has capacity 10, link 1 has
// capacity 100. Max-min: A and B share link 0 → 5 each; C gets 100−5 = 95.
func TestMaxMinParkingLot(t *testing.T) {
	rates := oracle.MaxMin(
		[]float64{10, 100},
		[][]int{{0, 1}, {0}, {1}},
		nil,
	)
	want := []float64{5, 5, 95}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Errorf("rate[%d] = %g, want %g", i, rates[i], want[i])
		}
	}
}

func TestMaxMinFlowCap(t *testing.T) {
	// Two flows on a 100-capacity link; one capped at 10. The capped flow
	// freezes at 10, the other takes the rest (90).
	rates := oracle.MaxMin([]float64{100}, [][]int{{0}, {0}}, []float64{10, 0})
	if math.Abs(rates[0]-10) > 1e-9 || math.Abs(rates[1]-90) > 1e-9 {
		t.Errorf("rates = %v, want [10 90]", rates)
	}
}

func TestMaxMinNoLinksNoCap(t *testing.T) {
	rates := oracle.MaxMin([]float64{1}, [][]int{nil}, nil)
	if !math.IsInf(rates[0], 1) {
		t.Errorf("unconstrained flow rate = %g, want +Inf", rates[0])
	}
}

func TestMaxMinEmpty(t *testing.T) {
	if rates := oracle.MaxMin([]float64{5}, nil, nil); len(rates) != 0 {
		t.Errorf("want empty rates, got %v", rates)
	}
}

// Property: feasibility — the summed rate over each link never exceeds its
// capacity — and positivity.
func TestPropertyMaxMinFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := 1 + r.Intn(8)
		caps := make([]float64, nl)
		for i := range caps {
			caps[i] = 1 + r.Float64()*99
		}
		nf := 1 + r.Intn(12)
		flows := make([][]int, nf)
		fcaps := make([]float64, nf)
		for i := range flows {
			k := 1 + r.Intn(3)
			seen := map[int]bool{}
			for j := 0; j < k; j++ {
				l := r.Intn(nl)
				if !seen[l] {
					flows[i] = append(flows[i], l)
					seen[l] = true
				}
			}
			if r.Float64() < 0.3 {
				fcaps[i] = 0.5 + r.Float64()*20
			}
		}
		rates := oracle.MaxMin(caps, flows, fcaps)
		load := make([]float64, nl)
		for i, ls := range flows {
			if rates[i] < 0 {
				return false
			}
			if fcaps[i] > 0 && rates[i] > fcaps[i]+1e-9 {
				return false
			}
			for _, l := range ls {
				load[l] += rates[i]
			}
		}
		for l := range caps {
			if load[l] > caps[l]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: max-min bottleneck condition — every flow crosses at least one
// saturated link on which it has the maximal rate (or is at its own cap).
func TestPropertyMaxMinBottleneck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := 1 + r.Intn(5)
		caps := make([]float64, nl)
		for i := range caps {
			caps[i] = 1 + float64(r.Intn(50))
		}
		nf := 1 + r.Intn(8)
		flows := make([][]int, nf)
		for i := range flows {
			flows[i] = []int{r.Intn(nl)}
			if r.Float64() < 0.4 {
				l2 := r.Intn(nl)
				if l2 != flows[i][0] {
					flows[i] = append(flows[i], l2)
				}
			}
		}
		rates := oracle.MaxMin(caps, flows, nil)
		load := make([]float64, nl)
		maxOn := make([]float64, nl)
		for i, ls := range flows {
			for _, l := range ls {
				load[l] += rates[i]
				if rates[i] > maxOn[l] {
					maxOn[l] = rates[i]
				}
			}
		}
		for i, ls := range flows {
			ok := false
			for _, l := range ls {
				saturated := load[l] >= caps[l]-1e-6
				if saturated && rates[i] >= maxOn[l]-1e-6 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression for the defensive no-progress path: a link with infinite
// capacity yields a +Inf share that never wins the strict minimum test, so
// progressive filling can fix nothing. The solver used to return with such
// flows unwritten — silently handing back stale scratch from a previous
// solve — instead of freezing them deterministically at 0.
func TestMaxMinNoProgressFreezesAtZero(t *testing.T) {
	var s oracle.MaxMinSolver
	// First solve: populate the reused rates scratch with nonzero values.
	warm := s.Solve([]float64{100}, [][]int{{0}, {0}}, nil)
	if warm[0] != 50 || warm[1] != 50 {
		t.Fatalf("warm-up rates = %v, want [50 50]", warm)
	}
	// Second solve on an infinite-capacity link: no bottleneck can be
	// selected. Capped flows freeze at their caps, the rest at exactly 0 —
	// never at the previous solve's 50.
	rates := s.Solve([]float64{math.Inf(1)}, [][]int{{0}, {0}}, []float64{0, 7})
	if rates[0] != 0 {
		t.Errorf("uncapped stalled flow rate = %g, want a deterministic 0", rates[0])
	}
	if rates[1] != 7 {
		t.Errorf("capped stalled flow rate = %g, want its cap 7", rates[1])
	}
}

func BenchmarkMaxMin200Flows(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	nl := 250
	caps := make([]float64, nl)
	for i := range caps {
		caps[i] = 1.25e8
	}
	nf := 200
	flows := make([][]int, nf)
	fcaps := make([]float64, nf)
	for i := range flows {
		flows[i] = []int{r.Intn(nl), r.Intn(nl)}
		fcaps[i] = 1e8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.MaxMin(caps, flows, fcaps)
	}
}
