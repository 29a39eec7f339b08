package repro

// One benchmark per table and figure of the paper's evaluation (§IV),
// each running a scaled-down version of the corresponding experiment
// pipeline (use cmd/expdriver for the full 557-configuration evaluation).
// The benches both time the pipelines and assert their structural sanity,
// so `go test -bench=. -benchmem` doubles as an end-to-end smoke test.

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/simdag"
)

// benchScenarios returns a small cross-class scenario sample.
func benchScenarios(stride int) []exp.Scenario {
	return exp.Subsample(exp.Scenarios(), stride)
}

// BenchmarkTableI_CommMatrix regenerates Table I: the communication matrix
// of a 10-unit redistribution from 4 to 5 processors, plus a representative
// large matrix.
func BenchmarkTableI_CommMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := redist.BlockMatrix(10, 4, 5)
		if m.At(0, 0) != 2 || m.At(3, 4) != 2 {
			b.Fatal("Table I corner values wrong")
		}
		redist.BlockMatrix(1e9, 47, 120)
	}
}

// BenchmarkTableII_Platforms builds the three Table II clusters and their
// routing structures.
func BenchmarkTableII_Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cl := range platform.PaperClusters() {
			if err := cl.Validate(); err != nil {
				b.Fatal(err)
			}
			caps := cl.LinkCapacities()
			if len(caps) != cl.NumLinks() {
				b.Fatal("capacity vector mismatch")
			}
		}
	}
}

// BenchmarkTableIII_Workloads enumerates and materializes the Table III
// scenario inventory (one graph per class).
func BenchmarkTableIII_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scens := exp.Scenarios()
		if len(scens) != 557 {
			b.Fatalf("want 557 scenarios, got %d", len(scens))
		}
		for _, idx := range []int{0, 108, 432, 532} {
			g := scens[idx].Graph()
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2_RelativeMakespan runs the naive-parameter comparison
// (Figure 2) on a grillon subsample.
func BenchmarkFig2_RelativeMakespan(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2And3(r, scens, cl)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MakespanRatios) != 2 {
			b.Fatal("want two RATS series")
		}
	}
}

// BenchmarkFig3_RelativeWork extracts the Figure 3 work ratios from the
// same pipeline.
func BenchmarkFig3_RelativeWork(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2And3(r, scens, cl)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.WorkSummary {
			if s.N == 0 {
				b.Fatal("empty work summary")
			}
		}
	}
}

// BenchmarkFig4_DeltaSweep sweeps the (mindelta, maxdelta) grid on FFT
// DAGs (Figure 4).
func BenchmarkFig4_DeltaSweep(b *testing.B) {
	scens := exp.Subsample(exp.ScenariosOf(exp.Scenarios(), exp.FFT), 20)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := exp.RunDeltaSweep(r, scens, cl, exp.FFT)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, avg := ds.Best(); avg <= 0 {
			b.Fatal("degenerate sweep")
		}
	}
}

// BenchmarkFig5_RhoSweep sweeps minrho with and without packing on
// irregular DAGs (Figure 5).
func BenchmarkFig5_RhoSweep(b *testing.B) {
	scens := exp.Subsample(exp.ScenariosOf(exp.Scenarios(), exp.Irregular), 60)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := exp.RunRhoSweep(r, scens, cl, exp.Irregular)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.PackingOn) != len(exp.MinRhoGrid) {
			b.Fatal("wrong sweep arity")
		}
	}
}

// BenchmarkTableIV_Tuning runs the full tuning methodology (delta grid +
// rho grid) for one application type on one cluster.
func BenchmarkTableIV_Tuning(b *testing.B) {
	scens := exp.Subsample(exp.ScenariosOf(exp.Scenarios(), exp.Strassen), 5)
	r := exp.NewRunner()
	cl := platform.Chti()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, rs, err := exp.RunTuningSweep(r, scens, cl, exp.Strassen)
		if err != nil {
			b.Fatal(err)
		}
		minD, maxD, _ := ds.Best()
		rho, _ := rs.Best()
		if maxD < minD || rho <= 0 {
			b.Fatal("nonsensical tuned parameters")
		}
	}
}

// tunedSample returns tuned-style parameters for the benchmark subsample
// (running the full Table IV sweep inside a bench would dominate it).
func tunedSample() map[exp.AppKind]exp.Tuned {
	return map[exp.AppKind]exp.Tuned{
		exp.FFT:       {MinDelta: -0.5, MaxDelta: 1, MinRho: 0.4},
		exp.Strassen:  {MinDelta: 0, MaxDelta: 1, MinRho: 0.4},
		exp.Layered:   {MinDelta: -0.25, MaxDelta: 1, MinRho: 0.2},
		exp.Irregular: {MinDelta: -0.75, MaxDelta: 1, MinRho: 0.5},
	}
}

// BenchmarkFig6_TunedMakespan runs the tuned-parameter comparison
// (Figure 6) on a grillon subsample.
func BenchmarkFig6_TunedMakespan(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6And7(r, scens, cl, tunedSample())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MakespanSummary) != 2 {
			b.Fatal("want two tuned series")
		}
	}
}

// BenchmarkFig7_TunedWork covers the Figure 7 work metric of the same run.
func BenchmarkFig7_TunedWork(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Grillon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6And7(r, scens, cl, tunedSample())
		if err != nil {
			b.Fatal(err)
		}
		if res.WorkSummary[0].N == 0 {
			b.Fatal("empty work series")
		}
	}
}

// BenchmarkTableV_Pairwise computes the pairwise better/equal/worse counts
// on one cluster subsample.
func BenchmarkTableV_Pairwise(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Chti()
	results, err := r.Run(scens, cl, exp.NaiveAlgos())
	if err != nil {
		b.Fatal(err)
	}
	ms := exp.Makespans(results)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw := metrics.Pairwise(ms)
		comb := metrics.Combined(pw, 0)
		if comb.Better+comb.Equal+comb.Worse < 99.9 {
			b.Fatal("combined percentages must sum to 100")
		}
	}
}

// BenchmarkTableVI_Degradation computes degradation-from-best on the same
// result matrix.
func BenchmarkTableVI_Degradation(b *testing.B) {
	scens := benchScenarios(40)
	r := exp.NewRunner()
	cl := platform.Grelon()
	results, err := r.Run(scens, cl, exp.NaiveAlgos())
	if err != nil {
		b.Fatal(err)
	}
	ms := exp.Makespans(results)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deg := metrics.DegradationFromBest(ms)
		for _, d := range deg {
			if d.AvgOverAll < 0 {
				b.Fatal("negative degradation")
			}
		}
	}
}

// --- Hot-path benches (mapping & estimation at production scale) --------

// hotPathClusters are the cluster-size sweep of the hot-path benches: the
// paper's largest machine plus the two synthetic production-scale presets,
// and the heterogeneous variants of the first two — those keep the
// vector-aware cost and per-link estimator branches on the recorded
// trajectory next to the uniform fast paths.
func hotPathClusters() []*platform.Cluster {
	return []*platform.Cluster{
		platform.Grelon(), platform.Big512(), platform.Big1024(),
		platform.GrelonHet(), platform.Big512Het(),
	}
}

// BenchmarkRedistTime measures one contention-free redistribution estimate
// — the innermost operation of every candidate placement evaluation — for
// overlapping sender/receiver sets of growing size on each cluster scale,
// plus the zero-cost same-set fast path RATS adoption relies on.
func BenchmarkRedistTime(b *testing.B) {
	for _, cl := range hotPathClusters() {
		for _, p := range []int{8, 32, 128, 512} {
			if 2*p > cl.P {
				continue // keep the receiver overlap partial
			}
			// Receivers overlap the upper half of the senders and extend
			// past them: the general partially-overlapping case.
			senders := make([]int, p)
			receivers := make([]int, p)
			for i := 0; i < p; i++ {
				senders[i] = i
				receivers[i] = p/2 + i
			}
			b.Run(fmt.Sprintf("%s/p=%d", cl.Name, p), func(b *testing.B) {
				est := core.NewEstimator(cl)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					est.RedistTime(1e9, senders, receivers)
				}
			})
		}
		// Same set in a different rank order: the free-redistribution case
		// every RATS snap produces.
		const ss = 32
		senders := make([]int, ss)
		receivers := make([]int, ss)
		for i := 0; i < ss; i++ {
			senders[i] = i
			receivers[i] = ss - 1 - i
		}
		b.Run(fmt.Sprintf("%s/same-set", cl.Name), func(b *testing.B) {
			est := core.NewEstimator(cl)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if est.RedistTime(1e9, senders, receivers) != 0 {
					b.Fatal("same-set redistribution must be free")
				}
			}
		})
	}
}

// BenchmarkAlloc runs the allocation phase (the first step of the two-step
// algorithm) over cluster size × DAG width — the two axes that drive the
// number of refinement grants and the size of the level-repair cones. The
// incremental engine (alloc.Compute) and the preserved full-rewalk oracle
// (oracle.ComputeAlloc) run on identical inputs, so the per-pair ratio
// is the engine's speedup; cmd/benchtraj tracks it across PRs in
// BENCH_alloc.json. Both sides are asserted byte-identical here too —
// a diverging "speedup" would be a scheduling change, not an optimization.
func BenchmarkAlloc(b *testing.B) {
	for _, cl := range hotPathClusters() {
		for _, n := range []int{100, 400} {
			for _, width := range []float64{0.2, 0.5, 0.8} {
				g := gen.Random(gen.RandomParams{
					N: n, Width: width, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 7})
				costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
				opts := alloc.DefaultOptions()
				want := alloc.Compute(g, costs, cl, opts)
				for _, engine := range []struct {
					name string
					run  func() []int
				}{
					{"incremental", func() []int { return alloc.Compute(g, costs, cl, opts) }},
					{"reference", func() []int { return oracle.ComputeAlloc(g, costs, cl, opts) }},
				} {
					b.Run(fmt.Sprintf("%s/n=%d/w=%.1f/%s", cl.Name, n, width, engine.name), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							got := engine.run()
							for t := range want {
								if got[t] != want[t] {
									b.Fatalf("allocation diverged at task %d", t)
								}
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkMap runs the full mapping phase (time-cost strategy, the most
// estimator-intensive) over cluster size × DAG width, the two axes that
// drive candidate-placement cost. Layered 100-task graphs keep the DAG
// shape comparable across widths. Each shape runs through the exact
// alignment oracle core.MapReference, which keeps the bare <cluster>/w=<w>
// name so the benchtraj trajectory stays continuous, and through core.Map
// (exact up to 32 receivers, greedy above) under an /auto suffix. At this
// 100-task paper scale the two mostly coincide (redistributions sit under
// the cap); the greedy branch's headroom lives in wider redistributions.
func BenchmarkMap(b *testing.B) {
	opts := core.DefaultNaive(core.StrategyTimeCost)
	aligns := []struct {
		suffix string
		mapFn  func(*dag.Graph, *moldable.Costs, *platform.Cluster, []int, core.Options) *core.Schedule
	}{
		{"", core.MapReference},
		{"/auto", core.Map},
	}
	for _, cl := range hotPathClusters() {
		for _, width := range []float64{0.2, 0.5, 0.8} {
			g := gen.Random(gen.RandomParams{
				N: 100, Width: width, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 7})
			costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
			a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
			for _, al := range aligns {
				mapFn := al.mapFn
				b.Run(fmt.Sprintf("%s/w=%.1f%s", cl.Name, width, al.suffix), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s := mapFn(g, costs, cl, a, opts)
						if len(s.Order) != g.N() {
							b.Fatal("incomplete schedule")
						}
					}
				})
			}
		}
	}
}

// simBenchScenario locates one scenario of an inventory by its benchmark
// label: the first sample of the kind, or for random kinds the n-task
// width-0.8, density-0.8 configuration.
func simBenchScenario(sc exp.Scale, kind exp.AppKind, n int) exp.Scenario {
	for _, s := range exp.ScenariosAt(sc) {
		if s.Kind != kind || s.Sample != 0 {
			continue
		}
		if kind == exp.FFT || (s.Params.N == n && s.Params.Width == 0.8 && s.Params.Density == 0.8) {
			return s
		}
	}
	panic("sim bench scenario not in inventory")
}

// simBenchState caches BenchmarkSim's per-scenario setup (graph,
// schedule, reference makespan): go test re-executes the parent benchmark
// body once per sub-benchmark, and the reference replay that anchors the
// makespan assertion is itself seconds long at these scales.
var simBenchState = map[string]*simBenchCase{}

type simBenchCase struct {
	g     *dag.Graph
	costs *moldable.Costs
	cl    *platform.Cluster
	sched *core.Schedule
	ref   float64
}

// executeReference replays s on the reference max-min network.
func executeReference(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, s *core.Schedule) (*simdag.Result, error) {
	return simdag.ExecuteOn(oracle.NewMaxMinNet(cl.LinkCapacities()), g, costs, cl, s)
}

// BenchmarkSim replays fixed schedules under contention on both
// fluid-network engines: the incremental flownet solver (simdag.Execute,
// the only production engine) and the from-scratch maxmin reference it is
// verified against (oracle.MaxMinNet, via executeReference). The shapes
// cover both regimes the served path sees: Table III layered DAGs
// (25/50/100 tasks) on grillon and grelon, and the big512/big1024
// scenario classes. The per-(cluster, scenario) ratio is the replay
// speedup of the incremental subsystem; cmd/benchtraj tracks its
// per-cluster geometric mean across PRs in BENCH_sim.json together with
// the allocs/op ratio of the steady-state recompute path. Both engines are
// asserted to agree on the makespan within the fuzz tolerance here too —
// a diverging "speedup" would be a simulation change, not an
// optimization.
func BenchmarkSim(b *testing.B) {
	type simCase struct {
		cl    *platform.Cluster
		scale exp.Scale
		kind  exp.AppKind
		n     int
		label string
	}
	var cases []simCase
	for _, cl := range []*platform.Cluster{platform.Grillon(), platform.Grelon()} {
		for _, n := range []int{25, 50, 100} {
			cases = append(cases, simCase{cl, exp.ScalePaper, exp.Layered, n, fmt.Sprintf("layered-n%d", n)})
		}
	}
	cases = append(cases,
		simCase{platform.Big512(), exp.ScaleBig512, exp.Layered, 200, "layered-n200"},
		simCase{platform.Big512(), exp.ScaleBig512, exp.Layered, 400, "layered-n400"},
		simCase{platform.Big512(), exp.ScaleBig512, exp.FFT, 0, "fft-k32"},
		simCase{platform.Big1024(), exp.ScaleBig1024, exp.Layered, 400, "layered-n400"},
		simCase{platform.Big1024(), exp.ScaleBig1024, exp.FFT, 0, "fft-k64"},
	)
	for _, bc := range cases {
		bc := bc
		for _, engine := range []struct {
			name    string
			execute func(*dag.Graph, *moldable.Costs, *platform.Cluster, *core.Schedule) (*simdag.Result, error)
		}{
			{"flownet", simdag.Execute},
			{"maxmin", executeReference},
		} {
			b.Run(fmt.Sprintf("%s/%s/%s", bc.cl.Name, bc.label, engine.name), func(b *testing.B) {
				key := bc.cl.Name + "/" + bc.label
				st := simBenchState[key]
				if st == nil {
					cl := bc.cl
					scen := simBenchScenario(bc.scale, bc.kind, bc.n)
					g := scen.Graph()
					costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
					a := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
					sched := core.Map(g, costs, cl, a, core.DefaultNaive(core.StrategyTimeCost))
					ref, err := executeReference(g, costs, cl, sched)
					if err != nil {
						b.Fatal(err)
					}
					st = &simBenchCase{g: g, costs: costs, cl: cl, sched: sched, ref: ref.Makespan}
					simBenchState[key] = st
				}
				b.ResetTimer()
				b.ReportAllocs()
				var scratchPct float64
				for i := 0; i < b.N; i++ {
					res, err := engine.execute(st.g, st.costs, st.cl, st.sched)
					if err != nil {
						b.Fatal(err)
					}
					if d := res.Makespan - st.ref; d > 1e-9*st.ref || -d > 1e-9*st.ref {
						b.Fatalf("makespan diverged: %g (%s) vs %g (reference)", res.Makespan, engine.name, st.ref)
					}
					scratchPct = res.Counters.ScratchSolvePct()
				}
				// Replay is deterministic per shape; benchtraj lifts this
				// into the sim_scratch_solve_pct trajectory summary.
				b.ReportMetric(scratchPct, "scratch-solve-pct")
			})
		}
	}
}
