// Package core implements the paper's contribution: two-step scheduling of
// mixed-parallel applications with a redistribution-aware mapping phase
// (RATS — Redistribution Aware Two-Step scheduling, §III).
//
// The first step (processor allocation) lives in internal/alloc (CPA, HCPA,
// MCPA). This package implements the second step: a list-scheduling mapping
// engine that processes waves of ready tasks in decreasing bottom-level
// order (Algorithm 1 of the paper) and, in the RATS variants, *adapts* the
// allocation of a task while mapping it — packing or stretching it onto the
// exact processor set of one of its predecessors so that the corresponding
// data redistribution disappears.
//
// Three mapping procedures are provided:
//
//   - StrategyNone — the baseline HCPA mapping: allocations fixed, each
//     task placed on the earliest-available processors.
//   - StrategyDelta — §III-A/B "delta": snap to a predecessor's processor
//     set when the allocation difference is within ⌊maxdelta·Np(t)⌋ (stretch)
//     or ⌈mindelta·Np(t)⌉ (pack); ready ties broken by increasing δ(t).
//   - StrategyTimeCost — §III-A/B "time-cost": stretch only when the
//     work ratio ρ ≥ minrho, pack only when the estimated finish time does
//     not degrade; ready ties broken by decreasing gain(t).
package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Schedule is the output of the mapping phase: for every task, a processor
// set (in data rank order) plus the scheduler's own contention-free time
// estimates. The authoritative makespan is produced by replaying the
// schedule in internal/simdag, which models network contention.
type Schedule struct {
	// Alloc is the final processor count per task, after any RATS packing
	// or stretching. Virtual tasks have 0.
	Alloc []int
	// Procs is the processor set of each task in rank order (rank r holds
	// block r of the task's 1-D block-distributed dataset).
	Procs [][]int
	// Order lists task IDs in mapping order; the simulator enforces this
	// order on each processor's queue.
	Order []int
	// EstStart and EstFinish are the mapping engine's contention-free
	// estimates, kept for inspection and for ablation studies.
	EstStart, EstFinish []float64
	// TotalWork is Σ alloc(t)·T(t, alloc(t)) over real tasks — the resource
	// consumption metric of Figures 3 and 7.
	TotalWork float64
	// Counters is the mapping run's observability snapshot (candidate
	// evaluations, dedup skips, alignment solves). Pure
	// diagnostics: two schedules are equal when the fields above are
	// equal, whatever the counters say.
	Counters obs.Counters
}

// EstMakespan returns the scheduler's own (contention-free) makespan
// estimate: the maximum estimated finish time.
func (s *Schedule) EstMakespan() float64 {
	m := 0.0
	for _, f := range s.EstFinish {
		if f > m {
			m = f
		}
	}
	return m
}

// Validate checks structural soundness of a schedule against its graph and
// cluster: every real task mapped onto alloc distinct in-range processors,
// virtual tasks unmapped, and the mapping order a permutation consistent
// with precedence (every predecessor ordered before its successors).
func (s *Schedule) Validate(g *dag.Graph, cl *platform.Cluster) error {
	n := g.N()
	if len(s.Alloc) != n || len(s.Procs) != n || len(s.Order) != n {
		return fmt.Errorf("core: schedule arrays sized %d/%d/%d, want %d",
			len(s.Alloc), len(s.Procs), len(s.Order), n)
	}
	// owner[p] == t+1 once task t claimed processor p: one stamp slice
	// for the whole check instead of a set per task.
	owner := make([]int32, cl.P)
	for t := 0; t < n; t++ {
		if g.Tasks[t].Virtual {
			if s.Alloc[t] != 0 || len(s.Procs[t]) != 0 {
				return fmt.Errorf("core: virtual task %d has an allocation", t)
			}
			continue
		}
		if s.Alloc[t] < 1 || s.Alloc[t] > cl.P {
			return fmt.Errorf("core: task %d allocation %d outside [1,%d]", t, s.Alloc[t], cl.P)
		}
		if len(s.Procs[t]) != s.Alloc[t] {
			return fmt.Errorf("core: task %d has %d procs, alloc %d", t, len(s.Procs[t]), s.Alloc[t])
		}
		for _, p := range s.Procs[t] {
			if p < 0 || p >= cl.P {
				return fmt.Errorf("core: task %d mapped on invalid processor %d", t, p)
			}
			if owner[p] == int32(t+1) {
				return fmt.Errorf("core: task %d mapped twice on processor %d", t, p)
			}
			owner[p] = int32(t + 1)
		}
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, t := range s.Order {
		if t < 0 || t >= n || pos[t] >= 0 {
			return fmt.Errorf("core: mapping order is not a permutation")
		}
		pos[t] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] > pos[e.To] {
			return fmt.Errorf("core: task %d mapped before its predecessor %d", e.To, e.From)
		}
	}
	return nil
}
