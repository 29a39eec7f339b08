package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one recorded interval of the scheduler's own execution: a phase,
// one allocation refinement grant, one task placement. Times are
// nanoseconds since the tracer's epoch; Arg1/Arg2 carry the span kind's
// two detail numbers (task id and candidate count for placements, granted
// task and cone size for grants) without per-span allocations.
type Span struct {
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	Arg1  int64  `json:"arg1"`
	Arg2  int64  `json:"arg2"`
}

// Tracer records spans into a fixed-capacity ring: the newest spans win,
// total memory is bounded at construction, and recording never allocates.
// A nil *Tracer is the disabled state — Begin and End are no-ops on it —
// so instrumentation sites call unconditionally and pay one pointer test
// when tracing is off.
//
// Record calls are mutex-serialized, which keeps a tracer attached to a
// batch-scheduling run race-free; the lock is uncontended (and irrelevant)
// in the serial pipeline.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	ring  []Span
	next  int    // ring slot the next span lands in
	total uint64 // spans ever recorded (total - len(ring) were evicted)
}

// DefaultTraceCapacity is the ring size NewTracer(0) selects: enough for
// every placement of a few thousand-task DAGs plus the phase spans.
const DefaultTraceCapacity = 8192

// NewTracer returns a tracer with the given ring capacity (0 or negative
// selects DefaultTraceCapacity). The ring is allocated up front so the
// record path stays allocation-free.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]Span, 0, capacity)}
}

// Begin returns the span start mark: nanoseconds since the tracer epoch.
// On a nil tracer it returns 0 without reading the clock.
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// End records a span begun at start (a Begin result). On a nil tracer it
// is a no-op; the caller needs no guard beyond passing the mark through.
func (t *Tracer) End(start int64, cat, name string, arg1, arg2 int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	sp := Span{Cat: cat, Name: name, Start: start, Dur: now - start, Arg1: arg1, Arg2: arg2}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns a copy of the retained spans in recording order (oldest
// first). A nil tracer returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Total returns how many spans were ever recorded (0 on a nil tracer);
// Total minus len(Spans()) fell out of the ring.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset empties the ring (capacity and epoch are kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.total = 0
	t.mu.Unlock()
}

// chromeSpan is one Chrome trace-event record ("X" = complete event),
// mirroring internal/trace's replay export so both traces load in the
// same viewer. The scheduler's own timeline uses pid 2 (the replay export
// uses 0 for processors and 1 for the network) with one tid per category.
type chromeSpan struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`  // microseconds
	Dur  float64          `json:"dur"` // microseconds
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace exports the retained spans as Chrome trace-event JSON
// (load via chrome://tracing or Perfetto). Categories map to rows: each
// distinct Cat gets its own tid in first-appearance order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	tids := map[string]int{}
	events := make([]chromeSpan, 0, len(spans))
	for _, sp := range spans {
		tid, ok := tids[sp.Cat]
		if !ok {
			tid = len(tids)
			tids[sp.Cat] = tid
		}
		events = append(events, chromeSpan{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
			PID: 2, TID: tid,
			Args: map[string]int64{"arg1": sp.Arg1, "arg2": sp.Arg2},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}{events})
}
