// Package obs is the pipeline's observability layer: flat per-run engine
// counters (Counters) and a ring-buffered span tracer (Tracer) recording
// the scheduler's own execution.
//
// The design constraint is zero overhead on the scheduling hot paths.
// Counters are plain uint64 fields owned by each engine context — the
// mapper, the allocation refinement loop, the flownet solver, the replay
// engine — incremented with ordinary stores (no atomics: every owner is
// single-writer by construction) and merged into one Counters value at
// each run's deterministic reduce points. The tracer
// is opt-in and nil-safe: every record call on a nil *Tracer is an inlined
// no-op, so disabled tracing costs one pointer test per span site and
// allocates nothing.
package obs

import (
	"reflect"
	"strings"
)

// Counters is the flat per-run counter record. Every field counts events
// of one engine context; field groups mirror the pipeline phases. A
// Counters value is data, not a live registry: engines accumulate into
// private fields (or a private Counters) and snapshot here, so reading a
// Counters never races with a run.
type Counters struct {
	// Allocation refinement (internal/alloc): single-processor grants,
	// LevelTracker cone repairs (one per grant that changed levels), the
	// total tasks those cones contained, and how the candidate heap was
	// repaired afterwards — per-entry decrease-key sifts versus one bulk
	// heapify for large cones.
	AllocGrants   uint64 `json:"alloc_grants"`
	ConeRepairs   uint64 `json:"cone_repairs"`
	ConeTasks     uint64 `json:"cone_tasks"`
	HeapSifts     uint64 `json:"heap_sifts"`
	BulkHeapifies uint64 `json:"bulk_heapifies"`

	// Mapping (internal/core): candidate placements evaluated, evaluations
	// skipped by the baseline-versus-reference dedup, and the receiver
	// rank-alignment solves — exact Hungarian up to redist.AlignExactCap
	// receivers, greedy above it.
	CandEvals   uint64 `json:"cand_evals"`
	DedupSkips  uint64 `json:"dedup_skips"`
	AlignExact  uint64 `json:"align_exact"`
	AlignGreedy uint64 `json:"align_greedy"`

	// Replay rate solving (internal/flownet under internal/simdag): how often
	// Solve ran each of its two regimes — full rebuild, incremental
	// merge-replay — with full rebuilds of small populations (at most 16
	// solvable entities) counted apart in SolvesScratch; plus merge-replay
	// checkpoint restores, old bottleneck levels orphaned by stale shares,
	// and what the merge replays did with the level log: levels re-applied
	// from a checkpoint up to the cut, clean old levels recommitted whole,
	// and levels written fresh.
	SolvesFull        uint64 `json:"solves_full"`
	SolvesIncremental uint64 `json:"solves_incremental"`
	SolvesScratch     uint64 `json:"solves_scratch"`
	CkRestores        uint64 `json:"ck_restores"`
	OrphanLevels      uint64 `json:"orphan_levels"`
	LevelsReplayed    uint64 `json:"levels_replayed"`
	LevelsRecommitted uint64 `json:"levels_recommitted"`
	LevelsInserted    uint64 `json:"levels_inserted"`

	// Replay event loop (internal/simdag): flow batches (one per edge and
	// distinct route latency) and the wire flows they carried (mean batch
	// size = FlowBatchFlows/FlowBatches).
	FlowBatches    uint64 `json:"flow_batches"`
	FlowBatchFlows uint64 `json:"flow_batch_flows"`
}

// Add accumulates o into c field by field.
func (c *Counters) Add(o *Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(cv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// Each calls fn for every counter field in declaration order, with the
// field's snake_case wire name (its JSON tag). It is the single source of
// truth the Prometheus exposition and the report modes iterate, so adding
// a field to Counters automatically surfaces it everywhere.
func (c *Counters) Each(fn func(name string, value uint64)) {
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		fn(name, v.Field(i).Uint())
	}
}

// ratio returns num/den as a percentage, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// DedupSkipPct returns the share of baseline candidate walks skipped by
// the dedup, relative to all evaluation opportunities (evals + skips).
func (c *Counters) DedupSkipPct() float64 {
	return ratio(c.DedupSkips, c.CandEvals+c.DedupSkips)
}

// ScratchSolvePct returns the share of rate solves that were full
// rebuilds of a small population.
func (c *Counters) ScratchSolvePct() float64 {
	return ratio(c.SolvesScratch, c.SolvesFull+c.SolvesIncremental+c.SolvesScratch)
}
