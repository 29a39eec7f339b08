// Package repro is a from-scratch Go reproduction of "Redistribution Aware
// Two-Step Scheduling for Mixed-Parallel Applications" (Hunold, Rauber,
// Suter — IEEE Cluster 2008).
//
// The public API is the rats package: a stable facade exposing the fluent
// DAG builder, the cluster presets, the functional-options Scheduler (two
// mapping strategies plus the HCPA baseline, three allocation procedures)
// and the typed Result with Gantt, Stats, Chrome-trace and JSON output.
// The commands (cmd/dagger, cmd/ratsim) and all examples/ build on rats
// alone; new code should too.
//
// The reproduction itself lives under internal/: the RATS scheduling
// framework (internal/core), the CPA/HCPA/MCPA allocation procedures
// (internal/alloc), the 1-D block redistribution model (internal/redist),
// a SimGrid-like flow-level simulator (internal/simdag over
// internal/flownet), the cluster platform model (internal/platform), the
// workload generators (internal/gen) and the evaluation harness
// (internal/exp, internal/metrics).
//
// See README.md for a tour and the quickstart. The benchmarks in
// bench_test.go regenerate a scaled-down version of every table and figure
// of the paper's evaluation; cmd/expdriver regenerates them in full.
package repro
