package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RequestMetrics is the flat per-request observability record: everything
// the service knows about one scheduling request, in one row — how long
// decoding took, how long the request waited (queue), where the pipeline
// spent its time (alloc/map/sim) and what came out (status).
// Flat scalar fields keep it trivially CSV/JSON/log-line friendly.
type RequestMetrics struct {
	ID        uint64 `json:"id"`
	Cluster   string `json:"cluster"`
	Strategy  string `json:"strategy"`
	Allocator string `json:"allocator"`
	Tasks     int    `json:"tasks"`

	// DecodeMs is the time from handler entry to submission: JSON decode,
	// request validation and DAG build. QueueWaitMs runs from the same
	// handler entry to the start of execution, so it includes DecodeMs.
	DecodeMs    float64 `json:"decode_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	AllocMs     float64 `json:"alloc_ms"`
	MapMs       float64 `json:"map_ms"`
	SimMs       float64 `json:"sim_ms"`
	TotalMs     float64 `json:"total_ms"`

	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`

	// Counters carries the run's engine-level observability snapshot
	// (rats.Result.Counters): candidate evaluations, solver regimes,
	// alignment modes — per request, so offline analysis can correlate engine
	// behavior with latency.
	Counters obs.Counters `json:"counters"`
}

// ms converts a duration to the milliseconds the wire format carries.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histogram counts durations in exponential buckets: bucket 0 spans
// [0, histBase), bucket i ≥ 1 spans [histBase·2^(i-1), histBase·2^i), and
// the last bucket is unbounded. With histBase = 50µs the last bucket
// starts at ≈ 28 minutes — far beyond any sane request deadline. sum
// accumulates the raw observations for the Prometheus _sum sample.
type histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    time.Duration
}

const (
	histBase    = 50 * time.Microsecond
	histBuckets = 26
)

func (h *histogram) observe(d time.Duration) {
	i := 0
	for bound := histBase; i < histBuckets-1 && d >= bound; bound *= 2 {
		i++
	}
	h.counts[i]++
	h.total++
	h.sum += d
}

// quantile estimates the q-quantile observation by locating its bucket
// and interpolating linearly within it (observations are assumed uniform
// inside a bucket, the standard Prometheus histogram_quantile model).
// The previous implementation returned the bucket's upper bound, which
// overstated the quantile by up to the bucket's full width — a factor of
// 2 with these doubling buckets; interpolation bounds the error by the
// distance between the bucket's uniform model and the true in-bucket
// distribution, which is at most one bucket width and typically far less.
// The unbounded last bucket has no width to interpolate, so its lower
// edge is returned. Returns 0 with no observations.
func (h *histogram) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total-1))
	var seen uint64
	lo := time.Duration(0)
	bound := histBase
	for i := 0; i < histBuckets-1; i++ {
		if cnt := h.counts[i]; seen+cnt > rank {
			// rank falls in this bucket at 0-based in-bucket position
			// rank−seen; +1 places single observations at the bucket's
			// width-fraction rather than its lower edge.
			pos := rank - seen
			return lo + time.Duration(float64(bound-lo)*float64(pos+1)/float64(cnt))
		} else {
			seen += cnt
		}
		lo = bound
		bound *= 2
	}
	return lo
}

// Collector aggregates per-request records into the service-level counters
// and latency distribution the /metrics endpoint serves. All methods are
// safe for concurrent use.
type Collector struct {
	nextID    atomic.Uint64
	mu        sync.Mutex
	started   time.Time
	accepted  uint64
	completed uint64
	failed    uint64 // pipeline or request errors (4xx/5xx except shed)
	shed      uint64 // rejected with 429 at the queue boundary
	expired   uint64 // deadline passed before execution started
	panicked  uint64 // pipeline panicked; also counted in failed
	latency   histogram
	queueWait histogram
	engine    obs.Counters // engine counters summed over recorded requests

	recent [recentRing]RequestMetrics
	nRec   int // total records ever written into the ring
}

const recentRing = 256

// NewCollector returns an empty collector anchored at now.
func NewCollector() *Collector {
	return &Collector{started: time.Now()}
}

// NextID issues the next request ID.
func (c *Collector) NextID() uint64 { return c.nextID.Add(1) }

// Accepted counts a request admitted past the queue boundary.
func (c *Collector) Accepted() {
	c.mu.Lock()
	c.accepted++
	c.mu.Unlock()
}

// Shed counts a request rejected at the queue boundary (429).
func (c *Collector) Shed() {
	c.mu.Lock()
	c.shed++
	c.mu.Unlock()
}

// Panicked counts a request whose pipeline panicked and was answered
// with 500. Record counts the same request as failed.
func (c *Collector) Panicked() {
	c.mu.Lock()
	c.panicked++
	c.mu.Unlock()
}

// Record files one finished request.
func (c *Collector) Record(m RequestMetrics) {
	c.mu.Lock()
	switch {
	case m.Status == statusOK:
		c.completed++
	case m.Status == statusTimeout:
		c.expired++
	default:
		c.failed++
	}
	c.latency.observe(time.Duration(m.TotalMs * float64(time.Millisecond)))
	c.queueWait.observe(time.Duration(m.QueueWaitMs * float64(time.Millisecond)))
	c.engine.Add(&m.Counters)
	c.recent[c.nRec%recentRing] = m
	c.nRec++
	c.mu.Unlock()
}

// Snapshot is the /metrics document: counters, throughput, latency
// quantiles and the most recent per-request records (newest first).
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Accepted      uint64  `json:"accepted"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	Shed          uint64  `json:"shed"`
	Expired       uint64  `json:"expired"`
	Panicked      uint64  `json:"panicked"`

	SchedulesPerSecond float64 `json:"schedules_per_second"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP90Ms       float64 `json:"latency_p90_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	QueueWaitP50Ms     float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms     float64 `json:"queue_wait_p99_ms"`

	// Engine sums the engine-level counters over every recorded request:
	// the service-lifetime view of candidate evaluations, solver regimes
	// and alignment decisions.
	Engine obs.Counters `json:"engine"`

	Recent []RequestMetrics `json:"recent"`
}

// Snapshot captures the current aggregate state.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	up := time.Since(c.started).Seconds()
	s := Snapshot{
		UptimeSeconds:  up,
		Accepted:       c.accepted,
		Completed:      c.completed,
		Failed:         c.failed,
		Shed:           c.shed,
		Expired:        c.expired,
		Panicked:       c.panicked,
		LatencyP50Ms:   ms(c.latency.quantile(0.50)),
		LatencyP90Ms:   ms(c.latency.quantile(0.90)),
		LatencyP99Ms:   ms(c.latency.quantile(0.99)),
		QueueWaitP50Ms: ms(c.queueWait.quantile(0.50)),
		QueueWaitP99Ms: ms(c.queueWait.quantile(0.99)),
		Engine:         c.engine,
	}
	if up > 0 {
		s.SchedulesPerSecond = float64(c.completed) / up
	}
	n := c.nRec
	if n > recentRing {
		n = recentRing
	}
	s.Recent = make([]RequestMetrics, 0, n)
	for i := 0; i < n; i++ {
		s.Recent = append(s.Recent, c.recent[((c.nRec-1-i)%recentRing+recentRing)%recentRing])
	}
	return s
}
