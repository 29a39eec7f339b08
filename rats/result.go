package rats

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/simdag"
	"repro/internal/trace"
)

// Placement is the outcome of scheduling one real task: the processors it
// ran on (in data rank order: rank r holds block r of the task's 1-D
// block-distributed dataset) and its simulated execution interval.
type Placement struct {
	Task   int     `json:"task"`   // task ID within the DAG
	Name   string  `json:"name"`   // task name
	Procs  []int   `json:"procs"`  // processor set, rank order
	Start  float64 `json:"start"`  // simulated start time, seconds
	Finish float64 `json:"finish"` // simulated finish time, seconds
}

// Phases records the wall-clock duration of each pipeline phase of one
// scheduling run: first-step allocation, redistribution-aware mapping, and
// the contention-aware replay. The service layer surfaces these per
// request; they are measurements, not part of the versioned wire format.
type Phases struct {
	Alloc time.Duration
	Map   time.Duration
	Sim   time.Duration
}

// Total returns the summed pipeline time.
func (p Phases) Total() time.Duration { return p.Alloc + p.Map + p.Sim }

// Result is the typed outcome of one scheduling run. All fields are
// immutable; a Result is safe for concurrent use.
type Result struct {
	DAGName   string // the workload's DAG.Name
	Cluster   string // target cluster name
	Strategy  Strategy
	Allocator Allocator

	// Phases holds the wall-clock phase timings of this run.
	Phases Phases

	// Counters aggregates the run's engine-level observability counters
	// across all three phases (allocation refinement, mapping, replay).
	// Diagnostics only: never an input to any scheduling decision. Like
	// Phases, counters are measurements, not part of the versioned wire
	// format, so counters can be added or dropped without a schema
	// change. The service layer carries them per request in its own
	// envelope (serve.RequestMetrics).
	Counters Counters

	Makespan    float64 // simulated, contention-aware makespan, seconds
	Estimate    float64 // the mapping engine's own contention-free estimate
	TotalWork   float64 // Σ p·T(t, p) resource consumption, processor-seconds
	RemoteBytes float64 // redistribution bytes that crossed the network
	LocalBytes  float64 // redistribution bytes kept on-node
	FlowCount   int     // point-to-point wire flows simulated

	// Placements lists every real task in task-ID order.
	Placements []Placement

	g     *dag.Graph
	sched *core.Schedule
	sim   *simdag.Result
}

func newResult(d *DAG, s *Scheduler, sched *core.Schedule, sim *simdag.Result) *Result {
	r := &Result{
		DAGName:     d.Name,
		Cluster:     s.cluster.Name(),
		Strategy:    s.strategy,
		Allocator:   s.allocator,
		Makespan:    sim.Makespan,
		Estimate:    sched.EstMakespan(),
		TotalWork:   sched.TotalWork,
		RemoteBytes: sim.RemoteBytes,
		LocalBytes:  sim.LocalBytes,
		FlowCount:   sim.FlowCount,
		g:           d.g,
		sched:       sched,
		sim:         sim,
	}
	for t := range d.g.Tasks {
		if d.g.Tasks[t].Virtual {
			continue
		}
		r.Placements = append(r.Placements, Placement{
			Task:   t,
			Name:   d.g.Tasks[t].Name,
			Procs:  append([]int(nil), sched.Procs[t]...),
			Start:  sim.Start[t],
			Finish: sim.Finish[t],
		})
	}
	return r
}

// Allocations returns the final processor count of every real task, in
// Placements order — after any RATS packing or stretching.
func (r *Result) Allocations() []int {
	out := make([]int, len(r.Placements))
	for i, p := range r.Placements {
		out[i] = len(p.Procs)
	}
	return out
}

// Gantt renders a plain-text Gantt chart of the simulated execution, one
// line per processor, using width character cells for the makespan.
func (r *Result) Gantt(width int) string {
	return simdag.Gantt(r.g, r.sched, r.sim, width)
}

// ChromeTrace writes the simulated execution in the Chrome trace-event
// JSON format (load via chrome://tracing or Perfetto), with one timeline
// row per processor plus one per network redistribution.
func (r *Result) ChromeTrace(w io.Writer) error {
	return trace.ChromeTrace(w, r.g, r.sched, r.sim)
}

// Stats summarizes a replayed schedule: utilization, redistribution
// exposure and how many dependence edges turned out communication-free.
type Stats struct {
	Makespan float64 `json:"makespan"`
	// BusyTime is Σ duration·|procs| over tasks, in processor-seconds.
	BusyTime float64 `json:"busy_time"`
	// Utilization is BusyTime / (ProcsUsed · Makespan).
	Utilization float64 `json:"utilization"`
	ProcsUsed   int     `json:"procs_used"`
	// RedistExposure sums, over edges, the interval between producer
	// finish and redistribution completion — the serialized communication
	// cost the schedule actually paid.
	RedistExposure float64 `json:"redist_exposure"`
	// CriticalWait is the largest single redistribution exposure.
	CriticalWait float64 `json:"critical_wait"`
	// FreeEdges counts real edges whose redistribution completed the
	// instant the producer finished; PaidEdges counts the rest.
	FreeEdges int `json:"free_edges"`
	PaidEdges int `json:"paid_edges"`
}

// Stats derives post-mortem statistics from the simulated execution.
func (r *Result) Stats() Stats {
	st := trace.Compute(r.g, r.sched, r.sim)
	return Stats{
		Makespan:       st.Makespan,
		BusyTime:       st.BusyTime,
		Utilization:    st.Utilization,
		ProcsUsed:      st.PUsed,
		RedistExposure: st.RedistExposure,
		CriticalWait:   st.CriticalWait,
		FreeEdges:      st.FreeEdges,
		PaidEdges:      st.PaidEdges,
	}
}

// String renders the stats as a compact human-readable block.
func (st Stats) String() string {
	return trace.Stats{
		Makespan:       st.Makespan,
		BusyTime:       st.BusyTime,
		Utilization:    st.Utilization,
		PUsed:          st.ProcsUsed,
		RedistExposure: st.RedistExposure,
		CriticalWait:   st.CriticalWait,
		FreeEdges:      st.FreeEdges,
		PaidEdges:      st.PaidEdges,
	}.String()
}

// ResultSchemaV1 identifies version 1 of the Result wire format. Every
// Result marshals with this value in its "schema" field; DecodeResult
// refuses documents that carry a different (or no) version, so consumers
// of ratsd responses fail loudly on a format they do not understand
// instead of silently reading zero values.
const ResultSchemaV1 = "rats.result/v1"

// WireResult is the versioned serialization schema of a Result: enums as
// their round-trippable names, everything else verbatim. It is the
// document a ratsd response carries and what DecodeResult returns —
// a plain data mirror of Result, without the replay internals that back
// Gantt or ChromeTrace rendering.
type WireResult struct {
	Schema      string      `json:"schema"`
	DAG         string      `json:"dag,omitempty"`
	Cluster     string      `json:"cluster"`
	Strategy    string      `json:"strategy"`
	Allocator   string      `json:"allocator"`
	Makespan    float64     `json:"makespan"`
	Estimate    float64     `json:"estimate"`
	TotalWork   float64     `json:"total_work"`
	RemoteBytes float64     `json:"remote_bytes"`
	LocalBytes  float64     `json:"local_bytes"`
	FlowCount   int         `json:"flow_count"`
	Placements  []Placement `json:"placements"`
	Stats       Stats       `json:"stats"`
}

// MarshalJSON implements json.Marshaler — the wire schema ratsd responses
// carry. Strategy and allocator serialize as their ParseStrategy /
// ParseAllocator round-trippable names; the schema field is always
// ResultSchemaV1.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(WireResult{
		Schema:      ResultSchemaV1,
		DAG:         r.DAGName,
		Cluster:     r.Cluster,
		Strategy:    r.Strategy.String(),
		Allocator:   r.Allocator.String(),
		Makespan:    r.Makespan,
		Estimate:    r.Estimate,
		TotalWork:   r.TotalWork,
		RemoteBytes: r.RemoteBytes,
		LocalBytes:  r.LocalBytes,
		FlowCount:   r.FlowCount,
		Placements:  r.Placements,
		Stats:       r.Stats(),
	})
}

// DecodeResult parses a marshaled Result (a ratsd response body's result
// document) and validates its schema version. Unknown or missing versions
// are an error.
func DecodeResult(data []byte) (*WireResult, error) {
	var w WireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("rats: decoding result: %w", err)
	}
	if w.Schema != ResultSchemaV1 {
		return nil, fmt.Errorf("rats: result schema %q is not %q", w.Schema, ResultSchemaV1)
	}
	return &w, nil
}
