// Package rats is the public API of the repro module: a stable facade over
// the internal reproduction of "Redistribution Aware Two-Step Scheduling
// for Mixed-Parallel Applications" (Hunold, Rauber, Suter — IEEE Cluster
// 2008).
//
// The package exposes the full two-step pipeline — processor allocation
// (CPA / HCPA / MCPA), redistribution-aware mapping (baseline, delta,
// time-cost) and contention-aware simulated execution — behind three
// concepts:
//
//   - a DAG of moldable tasks, built fluently (NewDAG().Task(...).Edge(...))
//     or produced by the paper's workload generators (FFT, Strassen, Random);
//   - a Cluster, one of the paper's presets (Chti, Grillon, Grelon), a
//     production-scale preset (Big512, Big1024) or a custom description
//     (NewCluster);
//   - a Scheduler assembled from functional options (New(WithStrategy(Delta),
//     WithAllocator(HCPA), WithDeltaBounds(-0.5, 0.5), ...)) that turns a DAG
//     into a typed Result: per-task placements, the simulated makespan, wire
//     traffic, a Gantt rendering, post-mortem Stats and JSON marshalling.
//
// # Quickstart
//
//	d := rats.NewDAG().
//		Task("T1", rats.TaskSpec{Elements: 40e6, OpsFactor: 200, Alpha: 0.05}).
//		Task("T2", rats.TaskSpec{Elements: 40e6, OpsFactor: 200, Alpha: 0.05}).
//		Task("T3", rats.TaskSpec{Elements: 40e6, OpsFactor: 200, Alpha: 0.05}).
//		Edge("T1", "T2").
//		Edge("T2", "T3")
//
//	s := rats.New(rats.WithCluster(rats.Grillon()), rats.WithStrategy(rats.Delta))
//	res, err := s.Schedule(d)
//	if err != nil { ... }
//	fmt.Println(res.Makespan, res.RemoteBytes)
//
// See README.md for the full worked example and its output.
//
// # Concurrency
//
// The concurrency contract has three rules:
//
//   - A Scheduler is immutable after New and safe for concurrent use by
//     multiple goroutines; Schedule and ScheduleAll may be called
//     concurrently on the same Scheduler.
//   - A DAG is a single-goroutine builder until it is finalized — by an
//     explicit Build or by its first Schedule/ScheduleAll — and immutable
//     (therefore safe for concurrent use, including appearing several times
//     in one batch) afterwards. Builder methods on a finalized DAG panic.
//   - ScheduleAll(ctx, dags) finalizes every DAG up front on the calling
//     goroutine, then fans the batch out over a bounded worker pool
//     (WithWorkers, default GOMAXPROCS). Results land at the index of their
//     input DAG; the first error cancels the remaining work.
//
// ScheduleAll is the scale-oriented entry point: scheduling is CPU-bound
// and allocation-free of shared state, so throughput scales with cores
// until the batch is exhausted. Parallelism is across DAGs only: each
// DAG is mapped serially, on one goroutine. The contract is exercised under the race
// detector in the package tests.
package rats
