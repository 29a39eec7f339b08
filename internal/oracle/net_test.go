package oracle

import (
	"math"
	"testing"
)

func TestRecomputeReleasesScratchReferences(t *testing.T) {
	// Start many concurrent flows, then let the population shrink to zero:
	// the rate-recomputation scratch of the reference network must not
	// keep pointing at completed flows' link slices, which would pin them
	// for the rest of a long simulation.
	net := NewMaxMinNet([]float64{100, 100, 100})
	for i := 0; i < 8; i++ {
		net.Start([]int{i % 3}, 0, float64(100*(i+1)))
	}
	now := 0.0
	for {
		if net.Dirty() {
			net.Solve()
		}
		if net.PopDrained(now, 1e-6, func(int) {}) {
			continue
		}
		t := net.NextDeadline(now)
		if math.IsInf(t, 1) {
			break
		}
		net.Advance(t - now)
		now = t
	}
	if net.Flows() != 0 {
		t.Fatalf("%d flows left undrained", net.Flows())
	}
	scratch := net.ScratchLinks()
	for i, l := range scratch {
		if l != nil {
			t.Fatalf("scratchLnk[%d] still references a link slice after the drain", i)
		}
	}
	if len(scratch) < 8 {
		t.Fatalf("scratch capacity %d, want ≥ 8 (buffer should be reused, not dropped)", len(scratch))
	}
}
