package rats

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/par"
	"repro/internal/simdag"
)

// Option configures a Scheduler; see the With* constructors.
type Option func(*Scheduler)

// Scheduler runs the two-step pipeline — allocation, redistribution-aware
// mapping, simulated execution — with a fixed configuration. It is
// immutable after New and safe for concurrent use.
type Scheduler struct {
	cluster   *Cluster
	strategy  Strategy
	allocator Allocator

	mapOpts   core.Options
	allocOpts alloc.Options

	fixedAlloc []int
	workers    int

	err error // first configuration error, surfaced by Schedule/ScheduleAll
}

// New assembles a Scheduler from functional options. The zero
// configuration is the paper's default pipeline: HCPA allocation with
// level caps, baseline mapping with the naive RATS parameters standing by
// (mindelta = −0.5, maxdelta = 0.5, minrho = 0.5, packing on), on the
// grillon cluster. Receiver rank alignment is not configurable: it is
// exact up to 32 receivers and greedy above (docs/ARCHITECTURE.md).
// Configuration errors are recorded and returned by the first Schedule or
// ScheduleAll call.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		cluster:   Grillon(),
		mapOpts:   core.DefaultNaive(core.StrategyNone),
		allocOpts: alloc.DefaultOptions(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.err == nil {
		cs, err := s.strategy.coreStrategy()
		if err != nil {
			s.err = err
		} else {
			s.mapOpts.Strategy = cs
		}
	}
	if s.err == nil {
		m, err := s.allocator.allocMethod()
		if err != nil {
			s.err = err
		} else {
			s.allocOpts.Method = m
		}
	}
	return s
}

func (s *Scheduler) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// WithCluster selects the target cluster (default: Grillon).
func WithCluster(c *Cluster) Option {
	return func(s *Scheduler) {
		if c == nil {
			s.fail("rats: WithCluster(nil)")
			return
		}
		s.cluster = c
	}
}

// WithStrategy selects the mapping strategy (default: Baseline).
func WithStrategy(st Strategy) Option {
	return func(s *Scheduler) { s.strategy = st }
}

// WithAllocator selects the first-step allocation procedure (default:
// HCPA).
func WithAllocator(a Allocator) Option {
	return func(s *Scheduler) { s.allocator = a }
}

// WithDeltaBounds sets the delta strategy's packing/stretching bounds as
// fractions of a task's allocation: min ≤ 0 bounds packing, max ≥ 0
// bounds stretching (the paper's naive values are −0.5 and 0.5). Both
// bounds must be finite: NaN and ±Inf would silently poison the per-task
// δ bounds, so they are rejected as configuration errors.
func WithDeltaBounds(min, max float64) Option {
	return func(s *Scheduler) {
		if math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(max) || math.IsInf(max, 0) {
			s.fail("rats: WithDeltaBounds(%g, %g): bounds must be finite", min, max)
			return
		}
		if min > 0 || max < 0 {
			s.fail("rats: WithDeltaBounds(%g, %g): want min ≤ 0 ≤ max", min, max)
			return
		}
		s.mapOpts.MinDelta, s.mapOpts.MaxDelta = min, max
	}
}

// WithMinRho sets the time-cost strategy's minimum acceptable work ratio
// for a stretch, in (0, 1]. NaN — for which every range check is
// vacuously false — is rejected like any other value outside the interval.
func WithMinRho(rho float64) Option {
	return func(s *Scheduler) {
		if math.IsNaN(rho) || rho <= 0 || rho > 1 {
			s.fail("rats: WithMinRho(%g): want a ratio in (0, 1]", rho)
			return
		}
		s.mapOpts.MinRho = rho
	}
}

// WithPacking enables or disables allocation packing in the time-cost
// strategy (default: enabled, which the paper finds always beneficial).
func WithPacking(enabled bool) Option {
	return func(s *Scheduler) { s.mapOpts.Packing = enabled }
}

// WithFixedAllocation bypasses the allocation procedure: procs[i] is the
// processor count of the i-th real task in insertion order (virtual
// connector tasks are skipped). Every count must be ≥ 1 — that is checked
// here, at configuration time, so a service rejects a nonsensical request
// before it reaches a scheduler. The slice length and the upper bound
// (count ≤ cluster size) are checked per scheduled DAG, where both are
// known.
func WithFixedAllocation(procs ...int) Option {
	return func(s *Scheduler) {
		if len(procs) == 0 {
			s.fail("rats: WithFixedAllocation needs at least one entry")
			return
		}
		for i, p := range procs {
			if p < 1 {
				s.fail("rats: WithFixedAllocation: entry %d is %d, want ≥ 1", i, p)
				return
			}
		}
		s.fixedAlloc = append([]int(nil), procs...)
	}
}

// WithWorkers bounds the ScheduleAll worker pool (default: GOMAXPROCS).
// n ≤ 0 — including the tempting "0 means default" — is rejected
// explicitly: a service must not silently translate a malformed request
// into an unbounded pool.
func WithWorkers(n int) Option {
	return func(s *Scheduler) {
		if n <= 0 {
			s.fail("rats: WithWorkers(%d): want ≥ 1", n)
			return
		}
		s.workers = n
	}
}

// Strategy returns the configured mapping strategy.
func (s *Scheduler) Strategy() Strategy { return s.strategy }

// Allocator returns the configured allocation procedure.
func (s *Scheduler) Allocator() Allocator { return s.allocator }

// Cluster returns the configured target cluster.
func (s *Scheduler) Cluster() *Cluster { return s.cluster }

// Schedule runs the full two-step pipeline on one DAG: first-step
// allocation, redistribution-aware mapping, then a replay in the
// contention-aware flow-level simulator. The DAG is finalized (Build) if
// it has not been already.
func (s *Scheduler) Schedule(d *DAG) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if d == nil {
		return nil, errors.New("rats: Schedule(nil DAG)")
	}
	if err := d.Build(); err != nil {
		return nil, err
	}
	return s.run(d, nil)
}

// run executes the pipeline on a finalized DAG. With a nil context it only
// reads shared state, which is what makes concurrent batch scheduling
// race-free; with a pooled Context the mapping phase runs in the context's
// reusable scratch (the caller serializes runs per context).
func (s *Scheduler) run(d *DAG, sc *Context) (*Result, error) {
	g, cl := d.g, s.cluster.pc
	t0 := time.Now()
	// Cost against the planning speed: the slowest node's speed on
	// heterogeneous clusters, exactly SpeedGFlops on uniform ones. The
	// mapping/replay phases re-base individual tasks to the slowest member
	// of their concrete processor set.
	costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())

	tracer := s.mapOpts.Tracer
	spanStart := tracer.Begin()
	allocation, err := s.allocationFor(d)
	if err != nil {
		return nil, err
	}
	// Alloc counters land in a per-run copy of the options: the Scheduler
	// itself stays immutable, so concurrent ScheduleAll runs never share a
	// counter sink.
	var allocCnt Counters
	if allocation == nil {
		ao := s.allocOpts
		ao.Obs = &allocCnt
		allocation = alloc.Compute(g, costs, cl, ao)
	}
	tAlloc := time.Now()
	tracer.End(spanStart, "rats", "alloc", int64(g.N()), 0)

	spanStart = tracer.Begin()
	var sched *core.Schedule
	if sc != nil {
		sched = sc.mc.Map(g, costs, allocation, s.mapOpts)
	} else {
		sched = core.Map(g, costs, cl, allocation, s.mapOpts)
	}
	tMap := time.Now()
	tracer.End(spanStart, "rats", "map", int64(g.N()), 0)

	spanStart = tracer.Begin()
	sim, err := simdag.Execute(g, costs, cl, sched)
	if err != nil {
		return nil, fmt.Errorf("rats: %s on %s: %w", d.Name, cl.Name, err)
	}
	tSim := time.Now()
	tracer.End(spanStart, "rats", "sim", int64(g.N()), int64(sim.FlowCount))

	r := newResult(d, s, sched, sim)
	r.Phases = Phases{
		Alloc: tAlloc.Sub(t0),
		Map:   tMap.Sub(tAlloc),
		Sim:   tSim.Sub(tMap),
	}
	r.Counters = allocCnt
	r.Counters.Add(&sched.Counters)
	r.Counters.Add(&sim.Counters)
	return r, nil
}

// allocationFor expands a fixed allocation over the DAG's task IDs, or
// returns nil when the configured allocator should run.
func (s *Scheduler) allocationFor(d *DAG) ([]int, error) {
	if s.fixedAlloc == nil {
		return nil, nil
	}
	g, cl := d.g, s.cluster.pc
	out := make([]int, g.N())
	next := 0
	for t := range g.Tasks {
		if g.Tasks[t].Virtual {
			continue
		}
		if next >= len(s.fixedAlloc) {
			return nil, fmt.Errorf("rats: fixed allocation has %d entries, DAG %s has %d real tasks",
				len(s.fixedAlloc), d.Name, g.RealTaskCount())
		}
		p := s.fixedAlloc[next]
		next++
		if p < 1 || p > cl.P {
			return nil, fmt.Errorf("rats: fixed allocation of %d processors for task %q outside [1, %d]",
				p, g.Tasks[t].Name, cl.P)
		}
		out[t] = p
	}
	if next != len(s.fixedAlloc) {
		return nil, fmt.Errorf("rats: fixed allocation has %d entries, DAG %s has %d real tasks",
			len(s.fixedAlloc), d.Name, g.RealTaskCount())
	}
	return out, nil
}

// ScheduleAll schedules a batch of DAGs concurrently over a bounded worker
// pool and returns one Result per input DAG, at the input's index. Every
// DAG is finalized up front on the calling goroutine, so the concurrent
// phase is read-only and a DAG may appear several times in one batch.
//
// The first failure cancels the remaining work: unprocessed entries stay
// nil and the returned error joins every per-DAG error (context
// cancellation included). The results slice is always returned, so callers
// can inspect the work that did complete.
func (s *Scheduler) ScheduleAll(ctx context.Context, dags []*DAG) ([]*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i, d := range dags {
		if d == nil {
			return nil, fmt.Errorf("rats: ScheduleAll: dag %d is nil", i)
		}
		if err := d.Build(); err != nil {
			return nil, fmt.Errorf("rats: ScheduleAll: dag %d (%s): %w", i, d.Name, err)
		}
	}

	results := make([]*Result, len(dags))
	errs := make([]error, len(dags))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	par.ForEach(len(dags), s.workers, func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		r, err := s.run(dags[i], nil)
		if err != nil {
			errs[i] = fmt.Errorf("dag %d (%s): %w", i, dags[i].Name, err)
			cancel()
			return
		}
		results[i] = r
	})
	return results, errors.Join(errs...)
}
