// Package flownet is a stateful fluid-network engine: a fixed set of
// capacitated links and a dynamic population of flows whose transfer rates
// follow max-min fairness (progressive filling), maintained incrementally
// as flows start and complete.
//
// It replaces the from-scratch rate re-solve the replay once performed on
// every population change — the pipeline's dominant cost when replaying
// large redistribution fan-outs on the 512/1024-node presets — with three
// cooperating mechanisms:
//
// # Route aggregation (super-flows)
//
// Flows with an identical route and identical rate cap are
// indistinguishable to max-min fairness: progressive filling always
// freezes them together, at the same rate. Start therefore folds such
// flows into one weighted entity (a "super-flow") holding a member count.
// The solver sees one entity consuming weight×rate on each of its links,
// and every member drains at the entity's shared per-member rate. On the
// hierarchical cluster presets a route is fully determined by the
// (source node, destination node) pair — two links inside a cabinet, four
// links (node up, cabinet up, cabinet down, node down) across cabinets —
// so concurrent redistributions that revisit a node pair collapse into one
// solver entity, and the per-(cabinet, cabinet) uplink traffic of a
// fan-out is carried by a bounded set of weighted entities rather than one
// entity per flow.
//
// # Incremental bottleneck repair (merge replay)
//
// Solve keeps the bottleneck level log of the previous solution: the
// ordered sequence of progressive-filling events (a saturated link fixing
// its entities at the fair share, or an entity freezing at its rate cap),
// with nondecreasing rate values, the per-level entity lists (the fix
// log), each level's flush as a per-link delta list ((link, weight sum)
// pairs, written by the same flush that applied them), and state
// checkpoints every ckStride levels: rem and the consumed weight
// linkWeight − wcnt, which stays exact while entities fixed after the
// checkpoint come and go, so checkpoints need no upkeep between solves.
// A population change perturbs only the events that the changed entities
// and links can influence; everything else keeps its rates — literally:
// entities fixed by still-valid levels are not touched at all. Solve
// proceeds in three zones (see mergeReplay):
//
//   - An unchecked prefix, cut by binary search below every changed
//     entity's own fix, every changed link's bottleneck level, and the
//     first level value reaching the changed links' level-0 fair shares
//     (shares only grow as filling progresses, so the level-0 share
//     lower-bounds the pending event). Its state is restored from the
//     nearest checkpoint plus the stored link deltas of the levels between
//     the checkpoint and the cut: one multiply-subtract per stored link,
//     no per-entity work.
//
//   - A merge walk over the rest of the log: old levels re-commit as long
//     as they fire before every pending dirty event. A clean level
//     re-commits whole — its fix range and its deltas are copied as two
//     blocks and the stored deltas applied, so its entities keep their
//     rates and no route is walked. Every divergence dirties the diverged
//     entity's links, so a level with a clean bottleneck keeps all of its
//     entries; only a rate-cap level whose entity diverged is dropped. A
//     level whose bottleneck link went dirty is orphaned and its entities
//     join the pending set; when a dirty event fires first — a dirty
//     link's fair share, tracked in a lazy min-heap whose stale keys are
//     valid lower bounds, or a pending entity's rate cap from the
//     pending-cap heap — a fresh level is inserted in place and the links
//     it drains become dirty in turn. Divergence thus cascades exactly as
//     far as it physically reaches, instead of invalidating the whole
//     tail.
//
//   - Plain progressive filling for whatever is still pending once the
//     old log is exhausted, appending to the rebuilt log.
//
// Only caps that can bind enter the pending-cap heap: an entity's cap
// joins it when it is below every link capacity of the entity's route. A
// cap at or above the capacity of the narrowest link l never fires, since
// while the entity is pending rem[l]/wcnt[l] ≤ caps[l]/weight ≤ cap and a
// cap event must be strictly below every link event.
//
// Solve falls back to a full solve — progressive filling from the raw
// capacities, rebuilding the log — when no trusted log exists (first
// solve, after a defensive freeze of stalled entities, or after a small
// solve), when at least half the solvable entities changed, or when at
// most 16 solvable entities are live. A small solve leaves the log
// untrusted, so the solve after it is full too; the replay's last bits
// depend on that rule. Solve has these two regimes only.
//
// # Lazy fluid draining and the deadline index
//
// Members of an entity always share one rate, so their completion order
// within the entity is fixed at arrival time: each member records its
// virtual finish volume (its transfer volume plus the entity's cumulative
// drained volume at join), and the entity keeps a min-heap of members by
// that static key. Advancing virtual time adds rate·dt to one per-entity
// accumulator instead of decrementing every member. Completions are
// indexed by a deadline heap holding exactly one (deadline, entity) entry
// per draining entity — live, with members, a positive rate and a finite
// head — and a by-entity position index. An entity's next-completion time
// stays exact while its rate and head member are unchanged (draining is
// linear), so only entities touched by a solve or a completion are
// re-keyed, in place; an entity that stops draining or is destroyed
// loses its entry. There are no stamps, no stale entries and no rebuilds,
// and finding work is O(log entities) per event rather than a scan of the
// whole population. The heap only schedules which entities are examined
// — the drained-state test against the eagerly accumulated volumes stays
// authoritative. The member, deadline, link and pending-cap heaps are all
// internal/heapq heaps.
//
// Replaying a stored flush is the same arithmetic the solve that wrote it
// performed — the same float64(weight)·rate per link, clamp and weight
// count update — so the restored and recommitted state is bit-identical
// to re-walking the fix entries.
//
// The solved rates are exactly the max-min fair point of the underlying
// per-flow population (the aggregation is lossless and the repair exact up
// to floating-point association); the test-only internal/oracle package
// keeps the from-scratch MaxMin solver as the reference, and the
// randomized tests in this package assert agreement within 1e-9 against it
// across add/remove sequences on the paper's and the production-scale
// topologies.
//
// A Net is not safe for concurrent use; replays are single-threaded and
// the experiment harness parallelizes across independent replays.
package flownet
