// Command expdriver regenerates every table and figure of the paper's
// evaluation section (§IV) and writes them to stdout and to per-experiment
// files under -out.
//
// Usage:
//
//	expdriver [-stride N] [-workers N] [-out DIR] [-only LIST] [-cluster NAME]
//	          [-counters]
//
// -counters switches to a diagnostics report instead of the paper
// experiments: it runs the three naive-parameter algorithms over the
// grelon, big512 and heterogeneous scenario classes and prints the
// engine-level counter rates (candidate dedup skip rate, replay
// scratch-solve rate, exact/greedy alignment solves) summed per
// algorithm. The big classes are capped to a few scenarios — the point
// is rate measurement, not the full comparison.
//
// -stride subsamples the 557 application configurations (stride 1 = the
// full evaluation; stride 4 keeps every 4th configuration) to bound the
// runtime on small machines. -only selects a comma-separated subset of
// {tableI,tableII,tableIII,fig23,fig4,fig5,tableIV,fig67,tableV6,extended,big,het};
// "extended" adds a five-way comparison with the CPA and MCPA baselines,
// which the paper describes (§II-C) but does not evaluate; "big" (never
// part of the default set — the replay of 400–800-task DAGs on the
// big512/big1024 presets takes minutes per scenario) runs the
// production-scale inventories of exp.ScenariosAt on their matched
// cluster presets; "het" (also opt-in) runs the heterogeneous scenario
// classes on the 2-tier grelon-het/big512-het presets. -cluster switches
// the single-cluster experiments (fig23, fig4, fig5, extended) to another
// preset (see platform.Names for the list).
//
// The experiment pipeline is: HCPA allocation (shared) → {HCPA baseline,
// RATS-delta, RATS-time-cost} mapping → contention-aware replay on the
// simulated chti / grillon / grelon clusters, on the incremental flownet
// engine. Receiver rank-order alignment (§II-A) is exact up to 32
// receivers and greedy above for every algorithm.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redist"
)

func main() {
	stride := flag.Int("stride", 1, "keep every stride-th scenario (1 = full 557-configuration evaluation)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	outDir := flag.String("out", "results", "output directory for per-experiment files")
	only := flag.String("only", "", "comma-separated experiment subset (default: all)")
	cluster := flag.String("cluster", "grillon",
		"cluster preset for the single-cluster experiments: "+strings.Join(platform.Names(), ", "))
	counters := flag.Bool("counters", false, "report engine counter rates per scenario class instead of the paper experiments")
	flag.Parse()

	if err := run(*stride, *workers, *outDir, *only, *cluster, *counters); err != nil {
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		os.Exit(1)
	}
}

func run(stride, workers int, outDir, only, cluster string, counters bool) error {
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want[s] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scens := exp.Subsample(exp.Scenarios(), stride)
	clusters := platform.PaperClusters()
	runner := exp.NewRunner()
	runner.Workers = workers
	// The single-cluster experiments default to grillon as in the paper;
	// -cluster redirects them to any preset, the heterogeneous ones
	// included.
	grillon, err := platform.ByName(cluster)
	if err != nil {
		return err
	}

	if counters {
		return emitCounters(runner, stride, outDir)
	}

	emit := func(name string, render func(w io.Writer) error) error {
		start := time.Now()
		f, err := os.Create(filepath.Join(outDir, name+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		w := io.MultiWriter(os.Stdout, f)
		if err := render(w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stdout, "-- %s done in %v --\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if sel("tableI") {
		if err := emit("tableI", func(w io.Writer) error {
			fmt.Fprintln(w, "== Table I: communication matrix, 10 units, p=4 -> q=5 ==")
			m := redist.BlockMatrix(10, 4, 5)
			fmt.Fprintf(w, "%6s", "")
			for j := 1; j <= 5; j++ {
				fmt.Fprintf(w, " %6s", fmt.Sprintf("q%d", j))
			}
			fmt.Fprintln(w)
			for i := 0; i < 4; i++ {
				fmt.Fprintf(w, "%6s", fmt.Sprintf("p%d", i+1))
				for j := 0; j < 5; j++ {
					if v := m.At(i, j); v > 0 {
						fmt.Fprintf(w, " %6.1f", v)
					} else {
						fmt.Fprintf(w, " %6s", "")
					}
				}
				fmt.Fprintln(w)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if sel("tableII") {
		if err := emit("tableII", func(w io.Writer) error {
			exp.WriteTableII(w, clusters)
			return nil
		}); err != nil {
			return err
		}
	}
	if sel("tableIII") {
		if err := emit("tableIII", func(w io.Writer) error {
			exp.WriteTableIII(w, exp.Scenarios())
			if stride > 1 {
				fmt.Fprintf(w, "(this run subsamples with stride %d: %d scenarios)\n", stride, len(scens))
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if sel("fig23") {
		if err := emit("fig2_fig3", func(w io.Writer) error {
			res, err := exp.RunFig2And3(runner, scens, grillon)
			if err != nil {
				return err
			}
			exp.WriteFig23(w, "Fig 2 (makespan) / Fig 3 (work), naive parameters", res)
			csv, err := os.Create(filepath.Join(outDir, "fig2_fig3.csv"))
			if err != nil {
				return err
			}
			defer csv.Close()
			return exp.WriteFig23CSV(csv, res)
		}); err != nil {
			return err
		}
	}

	if sel("fig4") {
		if err := emit("fig4", func(w io.Writer) error {
			ffts := exp.ScenariosOf(scens, exp.FFT)
			ds, err := exp.RunDeltaSweep(runner, ffts, grillon, exp.FFT)
			if err != nil {
				return err
			}
			exp.WriteDeltaSweep(w, ds)
			return nil
		}); err != nil {
			return err
		}
	}
	if sel("fig5") {
		if err := emit("fig5", func(w io.Writer) error {
			irr := exp.ScenariosOf(scens, exp.Irregular)
			rs, err := exp.RunRhoSweep(runner, irr, grillon, exp.Irregular)
			if err != nil {
				return err
			}
			exp.WriteRhoSweep(w, rs)
			return nil
		}); err != nil {
			return err
		}
	}

	needTuned := sel("tableIV") || sel("fig67") || sel("tableV6")
	var tuned *exp.TableIVResult
	if needTuned {
		if err := emit("tableIV", func(w io.Writer) error {
			var err error
			tuned, err = exp.RunTableIV(runner, scens, clusters)
			if err != nil {
				return err
			}
			exp.WriteTableIV(w, tuned)
			return nil
		}); err != nil {
			return err
		}
		// Preserve the full sweep surfaces behind every Table IV cell
		// (the Fig 4/5 methodology applied to each application type ×
		// cluster pair).
		sweepDir := filepath.Join(outDir, "sweeps")
		if err := os.MkdirAll(sweepDir, 0o755); err != nil {
			return err
		}
		for _, cl := range tuned.Clusters {
			for _, kind := range tuned.Kinds {
				name := fmt.Sprintf("sweep_%s_%s.txt", cl, kind)
				f, err := os.Create(filepath.Join(sweepDir, name))
				if err != nil {
					return err
				}
				exp.WriteDeltaSweep(f, tuned.DeltaSweeps[cl][kind])
				fmt.Fprintln(f)
				exp.WriteRhoSweep(f, tuned.RhoSweeps[cl][kind])
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	if sel("fig67") {
		if _, ok := tuned.Values[grillon.Name]; !ok {
			return fmt.Errorf("fig67 needs Table IV tuning for %s, which only covers the paper clusters (chti, grillon, grelon)", grillon.Name)
		}
		if err := emit("fig6_fig7", func(w io.Writer) error {
			res, err := exp.RunFig6And7(runner, scens, grillon, tuned.Values[grillon.Name])
			if err != nil {
				return err
			}
			exp.WriteFig23(w, "Fig 6 (makespan) / Fig 7 (work), tuned parameters", res)
			csv, err := os.Create(filepath.Join(outDir, "fig6_fig7.csv"))
			if err != nil {
				return err
			}
			defer csv.Close()
			return exp.WriteFig23CSV(csv, res)
		}); err != nil {
			return err
		}
	}
	if sel("tableV6") {
		if err := emit("tableV_tableVI", func(w io.Writer) error {
			tv, tvi, err := exp.RunTableVAndVI(runner, scens, clusters, tuned)
			if err != nil {
				return err
			}
			exp.WriteTableV(w, tv)
			fmt.Fprintln(w)
			exp.WriteTableVI(w, tvi)
			return nil
		}); err != nil {
			return err
		}
	}
	// Extension beyond the paper: the production-scale comparison on the
	// big512/big1024 presets with their matched scenario inventories
	// (exp.ScenariosAt). Opt-in only (-only big): the flow-level replay of
	// 400–800-task DAGs on 512–1024 nodes takes minutes per scenario.
	if want["big"] {
		for _, sc := range []exp.Scale{exp.ScaleBig512, exp.ScaleBig1024} {
			sc := sc
			if err := emit("big_"+sc.String(), func(w io.Writer) error {
				cl := sc.Cluster()
				bigScens := exp.Subsample(exp.ScenariosAt(sc), stride)
				algos := exp.NaiveAlgos()
				results, err := runner.Run(bigScens, cl, algos)
				if err != nil {
					return err
				}
				ms := exp.Makespans(results)
				fmt.Fprintf(w, "== Production scale (not in the paper): %d scenarios on %s, makespan relative to HCPA ==\n",
					len(bigScens), cl.Name)
				return writeExtended(w, algos, ms)
			}); err != nil {
				return err
			}
		}
	}
	// Extension beyond the paper: the heterogeneous scenario classes on
	// the 2-tier presets (half-speed cabinets, throttled uplinks). Opt-in
	// (-only het) like the big scales, though far cheaper: the grelon-het
	// inventory is paper-sized.
	if want["het"] {
		for _, sc := range []exp.Scale{exp.ScaleGrelonHet, exp.ScaleBig512Het} {
			sc := sc
			if err := emit("het_"+sc.String(), func(w io.Writer) error {
				cl := sc.Cluster()
				hetScens := exp.Subsample(exp.ScenariosAt(sc), stride)
				algos := exp.NaiveAlgos()
				results, err := runner.Run(hetScens, cl, algos)
				if err != nil {
					return err
				}
				ms := exp.Makespans(results)
				fmt.Fprintf(w, "== Heterogeneous platforms (not in the paper): %d scenarios on %s, makespan relative to HCPA ==\n",
					len(hetScens), cl.Name)
				return writeExtended(w, algos, ms)
			}); err != nil {
				return err
			}
		}
	}
	// Extension beyond the paper: five-way comparison adding the CPA and
	// MCPA first-step baselines of §II-C.
	if sel("extended") {
		if err := emit("extended", func(w io.Writer) error {
			algos := exp.ExtendedAlgos()
			results, err := runner.Run(scens, grillon, algos)
			if err != nil {
				return err
			}
			ms := exp.Makespans(results)
			fmt.Fprintf(w, "== Extended comparison on %s (not in the paper): makespan relative to HCPA ==\n", grillon.Name)
			if err := writeExtended(w, algos, ms); err != nil {
				return err
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// counterClassCap bounds the production-scale classes of the -counters
// report: the rates stabilize after a handful of scenarios, and each
// big512 replay costs minutes.
const counterClassCap = 6

// emitCounters renders the -counters diagnostics report: per scenario
// class, the naive-parameter algorithms' summed engine counters as rates.
func emitCounters(runner *exp.Runner, stride int, outDir string) error {
	grelon, err := platform.ByName("grelon")
	if err != nil {
		return err
	}
	capped := func(scens []exp.Scenario) []exp.Scenario {
		if len(scens) > counterClassCap {
			scens = scens[:counterClassCap]
		}
		return scens
	}
	classes := []struct {
		name  string
		scens []exp.Scenario
		cl    *platform.Cluster
	}{
		{"grelon", exp.Subsample(exp.Scenarios(), stride), grelon},
		{"big512", capped(exp.Subsample(exp.ScenariosAt(exp.ScaleBig512), stride)), exp.ScaleBig512.Cluster()},
		{"het", exp.Subsample(exp.ScenariosAt(exp.ScaleGrelonHet), stride), exp.ScaleGrelonHet.Cluster()},
	}
	f, err := os.Create(filepath.Join(outDir, "counters.txt"))
	if err != nil {
		return err
	}
	w := io.MultiWriter(os.Stdout, f)
	algos := exp.NaiveAlgos()
	for _, c := range classes {
		start := time.Now()
		results, err := runner.Run(c.scens, c.cl, algos)
		if err != nil {
			f.Close()
			return fmt.Errorf("counters %s: %w", c.name, err)
		}
		fmt.Fprintf(w, "== Engine counter rates: %s (%d scenarios on %s) ==\n",
			c.name, len(c.scens), c.cl.Name)
		for a, spec := range algos {
			var sum obs.Counters
			for s := range results[a] {
				sum.Add(&results[a][s].Counters)
			}
			fmt.Fprintf(w, "%-22s dedup-skip %5.1f%% (%d skipped) | "+
				"scratch-solve %5.1f%% (%d/%d) | align exact/greedy %d/%d\n",
				spec.Name,
				sum.DedupSkipPct(), sum.DedupSkips,
				sum.ScratchSolvePct(), sum.SolvesScratch,
				sum.SolvesFull+sum.SolvesIncremental+sum.SolvesScratch,
				sum.AlignExact, sum.AlignGreedy)
		}
		fmt.Fprintf(os.Stdout, "-- counters %s done in %v --\n\n",
			c.name, time.Since(start).Round(time.Millisecond))
	}
	return f.Close()
}

// writeExtended prints the summary lines of the extended comparison.
func writeExtended(w io.Writer, algos []exp.AlgoSpec, ms [][]float64) error {
	baseIdx := -1
	for i, a := range algos {
		if a.Name == "HCPA" {
			baseIdx = i
		}
	}
	if baseIdx < 0 {
		return fmt.Errorf("extended comparison needs an HCPA baseline")
	}
	deg := metrics.DegradationFromBest(ms)
	for i, a := range algos {
		s := metrics.Summarize(metrics.Relative(ms[i], ms[baseIdx]))
		fmt.Fprintf(w, "%-22s mean ratio %.3f | shorter than HCPA in %5.1f%% | degradation from best %6.2f%% (not best in %d)\n",
			a.Name, s.Mean, s.ShorterPercent(), deg[i].AvgOverAll, deg[i].NotBest)
	}
	return nil
}
