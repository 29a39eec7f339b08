// Package alloc implements the first step of two-step mixed-parallel
// scheduling: deciding how many processors to allocate to each moldable
// task (§II-C of the paper).
//
// # The CPA family
//
// All three procedures share one refinement loop. Every real task starts
// with a single processor; the loop then compares two lower bounds of the
// makespan:
//
//   - C∞, the critical-path length — the longest path through the DAG
//     under the current per-task execution times T(t, Np(t)); and
//   - W, the average area — the total work Σ ω(t, Np(t)) spread over the
//     processor budget.
//
// While C∞ > W the schedule is path-dominated, so the loop grants one
// more processor to the critical-path task whose execution time shrinks
// the most, and repeats. The procedures differ only in the area
// denominator and in their per-level limits:
//
//   - CPA (Radulescu & van Gemund) uses W = Σ ω_i / P. On clusters much
//     larger than the application this denominator makes W tiny, the loop
//     runs long, and allocations balloon until tasks monopolize the
//     machine — the large-cluster bias the successors fix.
//
//   - HCPA (N'takpé, Suter & Casanova) keeps the loop but corrects the
//     area: we reconstruct the documented intent as W' = Σ ω_i / min(P, N)
//     (the exact formula of reference [7] is not reproduced in the paper).
//     On small clusters (P ≤ N) this is exactly CPA; on large ones the
//     area is larger, the loop stops earlier and allocations stay
//     moderate, preserving task parallelism. HCPA additionally bounds each
//     task by ⌈P / width(level)⌉, our reconstruction of the
//     "self-constrained" allocation moderation; see docs/ARCHITECTURE.md,
//     "Design reconstructions".
//
//   - MCPA (Bansal, Kumar & Singh) additionally constrains each precedence
//     level to fit on the cluster (Σ allocations within a level ≤ P),
//     which the paper notes is only applicable to very regular DAGs.
//
// # Refinement invariants
//
// The loop's decisions depend on floating-point comparisons, so any
// optimized implementation must preserve these invariants exactly — they
// are what the incremental engine (incremental.go) maintains and what the
// oracle tests assert against the original full-rewalk procedure
// (reference.go):
//
//  1. Levels follow the recurrences bl(t) = T(t) + max over successors of
//     (edge + bl(succ)) and tl(t) = max over predecessors of (tl(pred) +
//     T(pred) + edge), evaluated with the same operand order as
//     dag.BottomLevels/TopLevels. A single-processor grant changes T of
//     one task only, so bl may change only on that task's ancestors and
//     tl only on its descendants (the "cone"); everything outside keeps
//     bit-identical values.
//  2. C∞ = max bl(t), and a task is a refinement candidate iff
//     tl(t) + bl(t) ≥ C∞ − C∞·1e-9, i.e. it lies on a critical path
//     within relative tolerance.
//  3. Candidates are examined in ascending task ID; the grant goes to the
//     largest gain T(t, Np) − T(t, Np+1), ties resolved toward the
//     smaller current allocation, remaining ties toward the
//     earlier-scanned task.
//  4. The loop stops when C∞ ≤ W (folded left-to-right over task IDs,
//     virtual tasks skipped) or when no candidate can improve: every
//     critical-path task is at the cluster size, at its level cap, out of
//     MCPA level budget, or gains nothing.
//  5. Virtual connector tasks have zero cost, participate in the level
//     recurrences, and never receive processors.
//
// Invariant 1 bounds the per-grant repair work to the affected cone;
// invariants 2–4 are what the engine's lazy max-heaps and cached work
// prefix reproduce without rescanning the graph.
package alloc
