package alloc

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Method selects the allocation procedure.
type Method int

const (
	CPA Method = iota
	HCPA
	MCPA
)

// String implements fmt.Stringer. Out-of-range values render as
// "Method(n)", matching core.Strategy's behaviour for invalid enums.
func (m Method) String() string {
	switch m {
	case CPA:
		return "cpa"
	case HCPA:
		return "hcpa"
	case MCPA:
		return "mcpa"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options parameterizes Compute.
//
// The critical path is computation-only, as in the paper ("it is difficult
// to accurately estimate the redistribution times before tasks are
// actually mapped", §I). Under HCPA every task is also bounded by
// ⌈P / width(level)⌉, so that every precedence level can execute
// concurrently: our reconstruction of HCPA's "self-constrained"
// allocations (docs/ARCHITECTURE.md, "Design reconstructions"). CPA and
// MCPA carry no such cap.
type Options struct {
	Method Method

	// Obs, when non-nil, receives the refinement loop's counters (grants,
	// cone repairs, heap-repair strategy) added on top of its current
	// values. The loop accumulates into locals and adds once at the end,
	// so the hot path never writes through the pointer.
	Obs *obs.Counters

	// Tracer, when non-nil, records one span per refinement grant
	// (category "alloc", Arg1 = granted task, Arg2 = repair cone size).
	Tracer *obs.Tracer
}

// DefaultOptions returns the configuration used throughout the evaluation:
// HCPA.
func DefaultOptions() Options {
	return Options{Method: HCPA}
}

// Compute returns the processor allocation of every task (0 for virtual
// tasks). The graph must be validated; the returned slice has length
// g.N().
//
// The refinement loop runs on the incremental engine of incremental.go,
// which maintains levels, the critical-path candidate set and the work
// area under each single-processor grant instead of re-walking the DAG.
// Its output is byte-identical to the original full-rewalk procedure,
// which reference.go preserves as the testing oracle.
func Compute(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, opts Options) []int {
	return computeIncremental(g, costs, cl, opts)
}
