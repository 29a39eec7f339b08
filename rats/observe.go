package rats

import (
	"repro/internal/obs"
)

// Counters is the engine-level observability snapshot of one scheduling
// run: candidate evaluation and dedup counts, receiver-alignment solve
// modes, allocation refinement activity, and the replay's flow-batch and
// rate-solver regime counts. It is an alias for the internal obs.Counters,
// so the service layer and the public API share one type (and one wire
// shape).
type Counters = obs.Counters

// Tracer is the scheduler self-tracer: a fixed-capacity span ring
// recording the pipeline's own execution (phase spans, allocation
// refinement grants, per-task placements). A nil *Tracer disables all
// recording at the cost of one pointer test per span site. Export the
// collected spans with WriteChromeTrace, or read them with Spans.
type Tracer = obs.Tracer

// NewTracer returns a self-tracer with the given ring capacity; 0 selects
// a default sized for a few thousand placements.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WithObserver attaches a self-tracer to the pipeline: the allocation
// refinement loop records one span per grant, the mapping engine one span
// per task placement, and the scheduler one span per pipeline phase.
// Tracing never changes scheduling decisions — observer-on and
// observer-off runs produce byte-identical schedules — and a single
// tracer may be shared across concurrent runs (records are serialized).
// Counters are always collected; see Result.Counters.
func WithObserver(t *Tracer) Option {
	return func(s *Scheduler) {
		s.mapOpts.Tracer = t
		s.allocOpts.Tracer = t
	}
}
