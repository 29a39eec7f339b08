package core

import (
	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// MapContext owns the reusable state of the mapping engine for one
// cluster: the cluster-sized availability bookkeeping, the estimator's
// block-walk scratch, the alignment engine's scratch and the
// candidate-buffer pool. One-shot callers use Map, which builds a context
// and discards it; a service scheduling a stream of DAGs holds a context
// per cluster and calls its Map method, amortizing the ≈200–300
// per-run setup allocations a fresh mapper pays.
//
// The schedule-ownership handoff is what makes reuse safe: everything the
// returned Schedule references — Alloc, Procs (and each per-task processor
// set), Order, EstStart, EstFinish — is allocated fresh inside the run and
// owned by the schedule, while everything the context retains is scratch
// that no schedule can observe. Consequently a reused context produces
// schedules byte-identical to fresh construction (pinned by
// TestMapContextReuseDigestIdentical).
//
// A MapContext is NOT safe for concurrent use: callers serialize runs (a
// pool of contexts is the intended concurrency model).
type MapContext struct {
	m mapper
}

// NewMapContext returns a mapping context bound to cl.
func NewMapContext(cl *platform.Cluster) *MapContext {
	c := &MapContext{}
	m := &c.m
	m.cl = cl
	m.hetSpeeds = cl.HeteroSpeeds()
	m.est = NewEstimator(cl)
	m.avail = make([]float64, cl.P)
	m.byAvail = make([]int, cl.P)
	m.availKept = make([]int, 0, cl.P)
	m.availTouched = make([]int, 0, cl.P)
	m.touchedMark = make([]bool, cl.P)
	m.sorter.m = m
	return c
}

// Cluster returns the cluster the context is bound to.
func (c *MapContext) Cluster() *platform.Cluster { return c.m.cl }

// Map runs the mapping phase on graph g with the given first-step
// allocation, exactly like the package-level Map on the context's cluster,
// and returns a schedule that owns all of its arrays. The allocation slice
// is not modified. Runs on one context must be serialized.
func (c *MapContext) Map(g *dag.Graph, costs *moldable.Costs, alloc []int, opts Options) *Schedule {
	m := &c.m
	m.g, m.costs, m.opts = g, costs, opts
	m.alloc = append([]int(nil), alloc...)
	sched := m.run()
	// Drop every reference that escaped into the schedule (plus the
	// request's graph and costs), so an idle pooled context pins nothing
	// but its own scratch.
	m.g, m.costs = nil, nil
	m.alloc, m.procs, m.start, m.finish, m.order = nil, nil, nil, nil, nil
	return sched
}
