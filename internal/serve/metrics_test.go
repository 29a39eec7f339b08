package serve

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
)

// exactQuantile computes the true q-quantile of samples with the same
// nearest-rank convention the histogram uses (rank = q·(n−1)).
func exactQuantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[uint64(q*float64(len(s)-1))]
}

// TestQuantileAccuracy pins the satellite fix: quantile interpolates
// within its bucket instead of returning the bucket's upper bound, so the
// estimate must land inside the bucket holding the exact value — within
// one bucket width — rather than up to 2× above it.
func TestQuantileAccuracy(t *testing.T) {
	// Log-uniform samples across four decades exercise many buckets.
	var h histogram
	var samples []time.Duration
	x := 1.0
	for i := 0; i < 1000; i++ {
		d := time.Duration(float64(100*time.Microsecond) * math.Pow(1.01, float64(i%800)) * x)
		samples = append(samples, d)
		h.observe(d)
	}
	for _, q := range []float64{0.50, 0.90, 0.99} {
		got := h.quantile(q)
		exact := exactQuantile(samples, q)
		// The exact value's bucket: [lo, hi).
		lo, hi := time.Duration(0), histBase
		for exact >= hi {
			lo, hi = hi, hi*2
		}
		if got < lo || got > hi {
			t.Errorf("q=%g: quantile %v outside exact value's bucket [%v, %v) (exact %v)",
				q, got, lo, hi, exact)
		}
		// The old implementation returned hi for values in [lo, hi);
		// interpolation must not overstate by the full former error.
		if got > exact*2 {
			t.Errorf("q=%g: quantile %v overstates exact %v by more than 2x", q, got, exact)
		}
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	var h histogram
	h.observe(75 * time.Microsecond) // bucket [50µs, 100µs)
	got := h.quantile(0.50)
	if got < 50*time.Microsecond || got > 100*time.Microsecond {
		t.Fatalf("single observation in [50µs,100µs): quantile %v escaped the bucket", got)
	}
	if h.quantile(0.99) != got {
		t.Fatalf("all quantiles of one observation must agree: p50 %v, p99 %v", got, h.quantile(0.99))
	}
}

func TestQuantileEmptyAndOverflow(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.observe(48 * time.Hour) // far beyond the last bounded bucket
	got := h.quantile(0.5)
	want := histBase << (histBuckets - 2) // last bucket's lower edge
	if got != want {
		t.Fatalf("overflow bucket quantile = %v, want lower edge %v", got, want)
	}
}

// TestWritePrometheusLints feeds the exposition through the vendored
// promtool-style validator and spot-checks the engine counters and the
// histogram structure.
func TestWritePrometheusLints(t *testing.T) {
	c := NewCollector()
	c.Accepted()
	c.Panicked()
	c.Record(RequestMetrics{
		Status: statusOK, TotalMs: 12.5, QueueWaitMs: 0.4,
		Counters: obs.Counters{CandEvals: 100, DedupSkips: 60, SolvesScratch: 7},
	})
	c.Record(RequestMetrics{Status: 422, TotalMs: 0.2, Error: "bad dag"})

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if errs := oracle.LintPrometheus(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v\n%s", errs, text)
	}
	for _, want := range []string{
		"rats_requests_completed_total 1",
		"rats_requests_failed_total 1",
		"rats_requests_panicked_total 1",
		"rats_engine_cand_evals_total 100",
		"rats_engine_dedup_skips_total 60",
		"rats_engine_solves_scratch_total 7",
		"rats_request_seconds_bucket{le=\"+Inf\"} 2",
		"rats_request_seconds_count 2",
		"rats_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition misses %q", want)
		}
	}
}

// TestCollectorAccumulatesEngineCounters: the snapshot's Engine field sums
// per-request counters.
func TestCollectorAccumulatesEngineCounters(t *testing.T) {
	c := NewCollector()
	c.Record(RequestMetrics{Status: statusOK, Counters: obs.Counters{CandEvals: 10}})
	c.Record(RequestMetrics{Status: statusOK, Counters: obs.Counters{CandEvals: 5, DedupSkips: 3}})
	snap := c.Snapshot()
	if snap.Engine.CandEvals != 15 || snap.Engine.DedupSkips != 3 {
		t.Fatalf("Engine = %+v, want cand_evals 15, dedup_skips 3", snap.Engine)
	}
}
