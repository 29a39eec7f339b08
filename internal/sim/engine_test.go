package sim

import (
	"math"
	"testing"

	"repro/internal/oracle"
)

func TestTimersFireInOrder(t *testing.T) {
	e := New(nil)
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 11) }) // same instant, FIFO
	end := e.Run()
	if end != 3 {
		t.Errorf("end time = %g, want 3", end)
	}
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSingleFlowCompletion(t *testing.T) {
	// One link at 100 B/s; 1000 bytes with 0.5 s latency → done at 10.5 s.
	e := New([]float64{100})
	var doneAt float64
	e.StartFlow([]int{0}, 0, 0.5, 1000, func() { doneAt = e.Now() })
	e.Run()
	if math.Abs(doneAt-10.5) > 1e-9 {
		t.Errorf("completion at %g, want 10.5", doneAt)
	}
}

func TestSelfFlowInstant(t *testing.T) {
	e := New(nil)
	var doneAt float64 = -1
	e.StartFlow(nil, 0, 0, 12345, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 0 {
		t.Errorf("self flow completed at %g, want 0", doneAt)
	}
}

func TestFlowRateCap(t *testing.T) {
	// Link at 100 B/s but flow capped at 10 B/s: 100 bytes takes 10 s.
	e := New([]float64{100})
	var doneAt float64
	e.StartFlow([]int{0}, 10, 0, 100, func() { doneAt = e.Now() })
	e.Run()
	if math.Abs(doneAt-10) > 1e-9 {
		t.Errorf("completion at %g, want 10", doneAt)
	}
}

// Two equal flows on one link: both at cap/2 until the first finishes,
// then the survivor speeds up. Flow A = 100 bytes, flow B = 200 bytes,
// link 100 B/s. Phase 1: both at 50 B/s; A done at t=2 (100/50). B has
// 100 bytes left, now alone at 100 B/s → done at t=3.
func TestBandwidthSharingDynamics(t *testing.T) {
	e := New([]float64{100})
	var aDone, bDone float64
	e.StartFlow([]int{0}, 0, 0, 100, func() { aDone = e.Now() })
	e.StartFlow([]int{0}, 0, 0, 200, func() { bDone = e.Now() })
	e.Run()
	if math.Abs(aDone-2) > 1e-9 {
		t.Errorf("A done at %g, want 2", aDone)
	}
	if math.Abs(bDone-3) > 1e-9 {
		t.Errorf("B done at %g, want 3", bDone)
	}
}

// A flow that starts mid-way steals bandwidth from a running one.
func TestLateArrivalResharing(t *testing.T) {
	e := New([]float64{100})
	var aDone, bDone float64
	// A: 300 bytes from t=0. Alone until t=1 (100 transferred), then shares.
	e.StartFlow([]int{0}, 0, 0, 300, func() { aDone = e.Now() })
	// B: arrives at t=1 (latency 1), 100 bytes.
	e.StartFlow([]int{0}, 0, 1, 100, func() { bDone = e.Now() })
	e.Run()
	// From t=1: A has 200 left at 50 B/s; B has 100 at 50 B/s → B done t=3.
	// Then A alone: 100 left at 100 B/s → done t=4.
	if math.Abs(bDone-3) > 1e-9 {
		t.Errorf("B done at %g, want 3", bDone)
	}
	if math.Abs(aDone-4) > 1e-9 {
		t.Errorf("A done at %g, want 4", aDone)
	}
}

func TestChainedCallbacksStartFlows(t *testing.T) {
	e := New([]float64{100})
	var secondDone float64
	e.StartFlow([]int{0}, 0, 0, 100, func() {
		// At t=1 start another flow.
		e.StartFlow([]int{0}, 0, 0, 200, func() { secondDone = e.Now() })
	})
	e.Run()
	if math.Abs(secondDone-3) > 1e-9 {
		t.Errorf("second flow done at %g, want 3", secondDone)
	}
}

func TestParkingLotCompletionTimes(t *testing.T) {
	// Links: 0 (cap 10), 1 (cap 100). Flow A (links 0,1) 100 bytes;
	// flow B (link 0) 100 bytes; flow C (link 1) 950 bytes.
	// Phase 1 rates: A=5, B=5, C=95. A and B finish at t=20 (100/5).
	// C transferred 95·20? No — C is done at 10: 950/95 = 10 s, before A/B.
	// After C finishes at t=10: A and B still share link 0: 5 each. A and B
	// finish at t = 20.
	e := New([]float64{10, 100})
	var aDone, bDone, cDone float64
	e.StartFlow([]int{0, 1}, 0, 0, 100, func() { aDone = e.Now() })
	e.StartFlow([]int{0}, 0, 0, 100, func() { bDone = e.Now() })
	e.StartFlow([]int{1}, 0, 0, 950, func() { cDone = e.Now() })
	e.Run()
	if math.Abs(cDone-10) > 1e-9 {
		t.Errorf("C done at %g, want 10", cDone)
	}
	if math.Abs(aDone-20) > 1e-9 || math.Abs(bDone-20) > 1e-9 {
		t.Errorf("A/B done at %g/%g, want 20/20", aDone, bDone)
	}
}

func TestRecomputeReleasesScratchReferences(t *testing.T) {
	// Start many concurrent flows, then let the population shrink to zero:
	// the rate-recomputation scratch of the reference network must not
	// keep pointing at completed flows' link slices, which would pin them
	// for the rest of a long simulation.
	net := oracle.NewMaxMinNet([]float64{100, 100, 100})
	e := NewOn(net)
	for i := 0; i < 8; i++ {
		links := []int{i % 3}
		e.StartFlow(links, 0, 0, float64(100*(i+1)), nil)
	}
	e.Run()
	scratch := net.ScratchLinks()
	for i, l := range scratch {
		if l != nil {
			t.Fatalf("scratchLnk[%d] still references a link slice after Run", i)
		}
	}
	if len(scratch) < 8 {
		t.Fatalf("scratch capacity %d, want ≥ 8 (buffer should be reused, not dropped)", len(scratch))
	}
}
