package rats

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
)

// Context is a reusable scheduler context: it owns the mapping engine's
// cluster-sized scratch, the redistribution estimator's scratch and the
// receiver-alignment engine for one cluster, so a stream of Schedule
// calls amortizes the per-run setup a fresh scheduler pays. Contexts are
// the unit a scheduling service pools.
//
// A Context is bound to a cluster and is NOT safe for concurrent use:
// serialize ScheduleIn calls on one context (pool several for
// parallelism). Schedules produced through a context are byte-identical
// to the per-request path — the context retains only scratch, never
// anything a Result references.
type Context struct {
	cl *Cluster
	mc *core.MapContext
}

// NewContext returns a scheduler context bound to the given cluster.
func NewContext(c *Cluster) (*Context, error) {
	if c == nil {
		return nil, errors.New("rats: NewContext(nil cluster)")
	}
	return &Context{cl: c, mc: core.NewMapContext(c.pc)}, nil
}

// Cluster returns the cluster the context is bound to.
func (c *Context) Cluster() *Cluster { return c.cl }

// compatible reports whether the context can serve a scheduler targeting
// cluster pc: the platform parameters must be structurally identical
// (identical parameters ⇒ identical estimates ⇒ identical schedules).
func (c *Context) compatible(other *Cluster) bool {
	return c.cl.pc == other.pc || platform.Equal(c.cl.pc, other.pc)
}

// ScheduleIn is Schedule running the mapping phase in the reusable
// context instead of building per-run state from scratch. The context's
// cluster must match the scheduler's (structurally — two Grelon() values
// are compatible). The result is byte-identical to Schedule's.
func (s *Scheduler) ScheduleIn(sc *Context, d *DAG) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if sc == nil {
		return nil, errors.New("rats: ScheduleIn(nil context)")
	}
	if !sc.compatible(s.cluster) {
		return nil, fmt.Errorf("rats: context bound to cluster %s cannot serve scheduler targeting %s",
			sc.cl.Name(), s.cluster.Name())
	}
	if d == nil {
		return nil, errors.New("rats: ScheduleIn(nil DAG)")
	}
	if err := d.Build(); err != nil {
		return nil, err
	}
	return s.run(d, sc)
}
