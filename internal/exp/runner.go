package exp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/simdag"
)

// AlgoSpec names one scheduling configuration. All algorithms in the
// paper's comparison share the HCPA allocation step (§II-C: RATS "relies
// on the allocation procedure of HCPA") and differ only in the mapping
// options; the extended comparison additionally swaps the first step via
// Alloc (CPA and MCPA baselines).
type AlgoSpec struct {
	Name string
	Map  core.Options
	// Alloc overrides the runner's shared allocation options when set.
	Alloc *alloc.Options
}

// Baseline returns the HCPA reference algorithm.
func Baseline() AlgoSpec {
	return AlgoSpec{Name: "HCPA", Map: core.Options{Strategy: core.StrategyNone}}
}

// Delta returns RATS with the delta strategy.
func Delta(mindelta, maxdelta float64) AlgoSpec {
	o := core.DefaultNaive(core.StrategyDelta)
	o.MinDelta, o.MaxDelta = mindelta, maxdelta
	return AlgoSpec{Name: fmt.Sprintf("delta(%g,%g)", mindelta, maxdelta), Map: o}
}

// TimeCost returns RATS with the time-cost strategy.
func TimeCost(minrho float64, packing bool) AlgoSpec {
	o := core.DefaultNaive(core.StrategyTimeCost)
	o.MinRho, o.Packing = minrho, packing
	return AlgoSpec{Name: fmt.Sprintf("time-cost(%g,pack=%v)", minrho, packing), Map: o}
}

// NaiveAlgos returns the §IV-B comparison set: HCPA, delta with
// mindelta = maxdelta = 0.5, time-cost with minrho = 0.5 and packing.
func NaiveAlgos() []AlgoSpec {
	return []AlgoSpec{Baseline(), Delta(-0.5, 0.5), TimeCost(0.5, true)}
}

// CPABaseline returns the original CPA two-step algorithm (§II-C): CPA
// allocation (no area correction, no level cap) with the baseline mapping.
func CPABaseline() AlgoSpec {
	o := alloc.Options{Method: alloc.CPA}
	return AlgoSpec{
		Name:  "CPA",
		Map:   core.Options{Strategy: core.StrategyNone},
		Alloc: &o,
	}
}

// MCPABaseline returns the MCPA two-step algorithm (§II-C): level-budgeted
// allocation with the baseline mapping.
func MCPABaseline() AlgoSpec {
	o := alloc.Options{Method: alloc.MCPA}
	return AlgoSpec{
		Name:  "MCPA",
		Map:   core.Options{Strategy: core.StrategyNone},
		Alloc: &o,
	}
}

// ExtendedAlgos returns the five-way comparison: the three §II-C two-step
// baselines plus the two RATS variants (naive parameters). This extends
// the paper's evaluation, which compares against HCPA only because it had
// been shown at least as good as CPA and more general than MCPA.
func ExtendedAlgos() []AlgoSpec {
	return []AlgoSpec{CPABaseline(), MCPABaseline(), Baseline(), Delta(-0.5, 0.5), TimeCost(0.5, true)}
}

// RunResult is the outcome of one (scenario, algorithm) run.
type RunResult struct {
	Makespan float64 // simulated, contention-aware (seconds)
	Work     float64 // Σ p·T(t,p) resource consumption (processor-seconds)
	Estimate float64 // the scheduler's own contention-free estimate
	// Counters is the run's engine observability snapshot: the mapping
	// counters plus the replay's solver counters. Replays are memoized per
	// schedule signature; a memo hit reuses the cached replay's counters
	// (the replay is deterministic, so they are what a re-run would count).
	Counters obs.Counters
}

// Runner executes scenarios in parallel with per-scenario reuse of the
// graph, the cost oracle and the (shared) HCPA allocation.
type Runner struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// AllocOptions configures the shared first step (default: HCPA).
	AllocOptions alloc.Options
	// Align, when non-nil, overrides every algorithm's receiver rank-order
	// alignment mode (expdriver's -align switch). Nil keeps the
	// per-spec modes, so configurations that sweep alignment themselves —
	// the root ablation benches — are unaffected.
	Align *redist.AlignMode
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner() *Runner {
	return &Runner{AllocOptions: alloc.DefaultOptions()}
}

// Run evaluates every algorithm on every scenario on one cluster.
// The result is indexed [algo][scenario]. Any replay error aborts the run
// (replay errors indicate scheduling bugs, not workload properties).
//
// Different mapping configurations frequently produce identical schedules
// (a delta sweep point that makes no modification degenerates to the
// baseline, neighbouring sweep points coincide, ...). Replays are therefore
// memoized per scenario on the exact schedule signature — the simulation is
// deterministic, so identical schedules have identical makespans.
func (r *Runner) Run(scens []Scenario, cl *platform.Cluster, algos []AlgoSpec) ([][]RunResult, error) {
	out := make([][]RunResult, len(algos))
	for a := range out {
		out[a] = make([]RunResult, len(scens))
	}
	errs := make([]error, len(scens))
	par.ForEach(len(scens), r.Workers, func(i int) {
		g := scens[i].Graph()
		costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
		allocation := alloc.Compute(g, costs, cl, r.AllocOptions)
		cache := map[string]replayMemo{} // schedule signature -> replay outcome
		for a, spec := range algos {
			taskAlloc := allocation
			if spec.Alloc != nil {
				taskAlloc = alloc.Compute(g, costs, cl, *spec.Alloc)
			}
			mapOpts := spec.Map
			if r.Align != nil {
				mapOpts.Align = *r.Align
			}
			sched := core.Map(g, costs, cl, taskAlloc, mapOpts)
			sig := scheduleSignature(sched)
			memo, hit := cache[sig]
			if !hit {
				res, err := simdag.Execute(g, costs, cl, sched)
				if err != nil {
					errs[i] = fmt.Errorf("scenario %s / %s: %w", scens[i].Name(), spec.Name, err)
					return
				}
				memo = replayMemo{makespan: res.Makespan, counters: res.Counters}
				cache[sig] = memo
			}
			rr := RunResult{
				Makespan: memo.makespan,
				Work:     sched.TotalWork,
				Estimate: sched.EstMakespan(),
				Counters: sched.Counters,
			}
			rr.Counters.Add(&memo.counters)
			out[a][i] = rr
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayMemo caches one replay's outcome under its schedule signature.
type replayMemo struct {
	makespan float64
	counters obs.Counters
}

// scheduleSignature serializes the replay-relevant parts of a schedule
// (processor sets in rank order plus the mapping order) into a map key.
func scheduleSignature(s *core.Schedule) string {
	var b []byte
	for _, procs := range s.Procs {
		b = binary.AppendVarint(b, int64(len(procs)))
		for _, p := range procs {
			b = binary.AppendVarint(b, int64(p))
		}
	}
	for _, t := range s.Order {
		b = binary.AppendVarint(b, int64(t))
	}
	return string(b)
}

// Makespans extracts the makespan vectors from a result matrix.
func Makespans(results [][]RunResult) [][]float64 {
	out := make([][]float64, len(results))
	for a := range results {
		out[a] = make([]float64, len(results[a]))
		for s := range results[a] {
			out[a][s] = results[a][s].Makespan
		}
	}
	return out
}

// Works extracts the total-work vectors from a result matrix.
func Works(results [][]RunResult) [][]float64 {
	out := make([][]float64, len(results))
	for a := range results {
		out[a] = make([]float64, len(results[a]))
		for s := range results[a] {
			out[a][s] = results[a][s].Work
		}
	}
	return out
}
