package flownet

import (
	"math"
	"testing"
)

// arrival is one flow of a drain scenario, started at time at.
type arrival struct {
	at      float64
	links   []int
	rateCap float64
	bytes   float64
}

// drainAll runs arrivals (ordered by at) through n the way the replay's
// event loop drives it: solve if dirty, pop drained flows, then advance to
// the next completion deadline or arrival. It returns each arrival's
// completion time and the time the network went idle.
func drainAll(n *Net, arr []arrival) (done []float64, end float64) {
	done = make([]float64, len(arr))
	byID := map[int]int{} // flow id → arrival; ids are recycled
	now, next := 0.0, 0
	for {
		if n.Dirty() {
			n.Solve()
		}
		if n.PopDrained(now, eps, func(id int) { done[byID[id]] = now }) {
			continue
		}
		t := n.NextDeadline(now)
		if next < len(arr) {
			t = math.Min(t, arr[next].at)
		}
		if math.IsInf(t, 1) {
			return done, now
		}
		if t > now {
			n.Advance(t - now)
			now = t
		}
		for ; next < len(arr) && arr[next].at <= now; next++ {
			a := arr[next]
			byID[n.Start(a.links, a.rateCap, a.bytes)] = next
		}
	}
}

func checkDone(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("flow %d done at %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSingleFlowCompletion(t *testing.T) {
	// One link at 100 B/s; 1000 bytes after 0.5 s latency → done at 10.5 s.
	done, _ := drainAll(New([]float64{100}), []arrival{{0.5, []int{0}, 0, 1000}})
	checkDone(t, done, []float64{10.5})
}

// Two equal flows on one link: both at cap/2 until the first finishes,
// then the survivor speeds up. Flow A = 100 bytes, flow B = 200 bytes,
// link 100 B/s. Phase 1: both at 50 B/s; A done at t=2 (100/50). B has
// 100 bytes left, now alone at 100 B/s → done at t=3.
func TestBandwidthSharingDynamics(t *testing.T) {
	done, _ := drainAll(New([]float64{100}), []arrival{
		{0, []int{0}, 0, 100},
		{0, []int{0}, 0, 200},
	})
	checkDone(t, done, []float64{2, 3})
}

// A flow that starts mid-way steals bandwidth from a running one. A: 300
// bytes from t=0, alone until t=1 (100 transferred). B: 100 bytes from
// t=1. Both at 50 B/s → B done at t=3; then A alone drains its last 100
// bytes at 100 B/s → done at t=4.
func TestLateArrivalResharing(t *testing.T) {
	done, _ := drainAll(New([]float64{100}), []arrival{
		{0, []int{0}, 0, 300},
		{1, []int{0}, 0, 100},
	})
	checkDone(t, done, []float64{4, 3})
}

func TestFlowRateCap(t *testing.T) {
	// Link at 100 B/s but flow capped at 10 B/s: 100 bytes takes 10 s.
	done, _ := drainAll(New([]float64{100}), []arrival{{0, []int{0}, 10, 100}})
	checkDone(t, done, []float64{10})
}

func TestParkingLotCompletionTimes(t *testing.T) {
	// Links: 0 (cap 10), 1 (cap 100). Flow A (links 0,1) 100 bytes; flow
	// B (link 0) 100 bytes; flow C (link 1) 950 bytes. Rates A=5, B=5,
	// C=95: C is done at 10 s (950/95), A and B, still sharing link 0 at 5
	// each, at 20 s.
	done, _ := drainAll(New([]float64{10, 100}), []arrival{
		{0, []int{0, 1}, 0, 100},
		{0, []int{0}, 0, 100},
		{0, []int{1}, 0, 950},
	})
	checkDone(t, done, []float64{20, 20, 10})
}

func TestManySimultaneousFlows(t *testing.T) {
	// Stress: 500 flows on one link all complete, conserving total bytes.
	arr := make([]arrival, 500)
	for i := range arr {
		arr[i] = arrival{0, []int{0}, 0, 10}
	}
	n := New([]float64{1000})
	_, end := drainAll(n, arr)
	if n.Flows() != 0 {
		t.Fatalf("%d/500 flows left undrained", n.Flows())
	}
	// 5000 bytes through a 1000 B/s link: exactly 5 seconds.
	if end < 4.99 || end > 5.01 {
		t.Errorf("end = %g, want ≈5", end)
	}
}
