// Package oracle holds the reference implementations the production
// engines are tested against, and nothing the production build needs:
//
//   - MaxMin, MaxMinSolver and MaxMinNet: from-scratch progressive filling
//     and a fluid network re-solved by it on every population change.
//     simdag.ExecuteOn replays whole schedules on MaxMinNet, and
//     internal/flownet's incremental solver must agree with it within
//     1e-9.
//   - ComputeAlloc: the full-rewalk allocation loop alloc.Compute must
//     match byte for byte.
//   - MinCost, MaxWeight and AlignReceivers: the dense Hungarian
//     assignment and the map-and-matrix receiver alignment that
//     assign.MaxWeightSparse and redist's banded alignment must match.
//   - CriticalPath, CriticalPathLength and TopLevels: the critical-path
//     walks and the from-scratch top-level pass the allocation,
//     generator and graph tests (and dag.LevelTracker's) measure against.
//   - LintPrometheus: the exposition linter behind cmd/promlint and the
//     metrics tests.
//
// Only _test.go files, the root benchmarks and CI tools (cmd/promlint)
// import this package. CI fails if `go list -deps` of ratsd, ratsim,
// dagger, expdriver or the public rats package names it, so no
// production path can reach a reference implementation.
//
// The exact-alignment pipeline (core.MapReference over
// redist.AlignReceiversExact) stays in its packages: it is the production
// mapper with the exact-assignment cap lifted, not a separate
// implementation, and moving it here would mean exporting that cap as a
// knob.
package oracle
