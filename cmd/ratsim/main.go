// Command ratsim schedules one mixed-parallel application on one simulated
// cluster through the public rats API and reports the outcome of every
// algorithm: HCPA baseline, RATS-delta and RATS-time-cost.
//
// Usage:
//
//	ratsim [-app KIND] [-n N] [-k K] [-width W] [-density D] [-regularity R]
//	       [-jump J] [-seed S] [-cluster NAME]
//	       [-gantt] [-algo NAME] [-json] [-counters]
//
// Every algorithm aligns receiver ranks exactly up to 32 receivers and
// greedily above, and replays on the incremental flownet engine.
//
// -counters prints the run's engine counter rates per algorithm (candidate
// dedup skips, replay solver regimes, and the levels the replay's merge
// walks re-applied, recommitted and wrote fresh). With -trace, a second
// Chrome trace file per algorithm (<prefix>-<name>-sched.json) records
// the scheduler's own execution — allocation grants, per-task placements
// and pipeline phases — next to the simulated application timeline.
//
// Examples:
//
//	ratsim -app fft -k 8 -cluster grelon -gantt
//	ratsim -app irregular -n 50 -width 0.5 -density 0.2 -cluster grillon
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/rats"
)

func main() {
	app := flag.String("app", "layered", "application kind: layered, irregular, fft, strassen")
	n := flag.Int("n", 25, "computation tasks (random kinds)")
	k := flag.Int("k", 8, "FFT data points (power of two)")
	width := flag.Float64("width", 0.5, "DAG width parameter (random kinds)")
	density := flag.Float64("density", 0.2, "DAG density parameter")
	regularity := flag.Float64("regularity", 0.8, "DAG regularity parameter")
	jump := flag.Int("jump", 1, "jump edge length (irregular)")
	seed := flag.Int64("seed", 1, "generator seed")
	clusterName := flag.String("cluster", "grillon", "cluster: "+strings.Join(rats.ClusterNames(), ", "))
	gantt := flag.Bool("gantt", false, "print a Gantt chart per algorithm")
	algoFilter := flag.String("algo", "", "run only one algorithm: hcpa, delta, time-cost")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file per algorithm (prefix)")
	asJSON := flag.Bool("json", false, "emit one JSON result per algorithm instead of text")
	counters := flag.Bool("counters", false, "print engine counter rates per algorithm")
	flag.Parse()

	if err := run(*app, *n, *k, *width, *density, *regularity, *jump, *seed,
		*clusterName, *gantt, *algoFilter, *traceOut, *asJSON, *counters); err != nil {
		fmt.Fprintln(os.Stderr, "ratsim:", err)
		os.Exit(1)
	}
}

func buildDAG(app string, n, k int, width, density, regularity float64, jump int, seed int64) (*rats.DAG, error) {
	switch app {
	case "layered":
		return rats.Random(rats.RandomSpec{N: n, Width: width, Density: density,
			Regularity: regularity, Layered: true, Seed: seed}), nil
	case "irregular":
		return rats.Random(rats.RandomSpec{N: n, Width: width, Density: density,
			Regularity: regularity, Jump: jump, Seed: seed}), nil
	case "fft":
		return rats.FFT(k, seed), nil
	case "strassen":
		return rats.Strassen(seed), nil
	}
	return nil, fmt.Errorf("unknown application kind %q", app)
}

func run(app string, n, k int, width, density, regularity float64, jump int, seed int64,
	clusterName string, gantt bool, algoFilter, traceOut string, asJSON bool,
	counters bool) error {
	cl, err := rats.ClusterByName(clusterName)
	if err != nil {
		return err
	}
	// One DAG for the whole run: finalized here, read-only for every
	// algorithm afterwards.
	d, err := buildDAG(app, n, k, width, density, regularity, jump, seed)
	if err != nil {
		return err
	}
	if err := d.Build(); err != nil {
		return err
	}
	var only rats.Strategy
	if algoFilter != "" {
		if only, err = rats.ParseStrategy(algoFilter); err != nil {
			return err
		}
	}

	if !asJSON {
		fmt.Printf("application: %s (%d tasks, %d edges, max width %d)\n",
			app, d.TaskCount(), d.EdgeCount(), d.MaxWidth())
		fmt.Printf("cluster    : %s (%d procs @ %.3f GFlop/s)\n\n",
			cl.Name(), cl.Procs(), cl.SpeedGFlops())
	}

	variants := []struct {
		name     string
		strategy rats.Strategy
	}{
		{"hcpa", rats.Baseline},
		{"delta", rats.Delta},
		{"time-cost", rats.TimeCost},
	}
	var base float64
	enc := json.NewEncoder(os.Stdout)
	for _, v := range variants {
		if algoFilter != "" && v.strategy != only {
			continue
		}
		opts := []rats.Option{rats.WithCluster(cl), rats.WithStrategy(v.strategy)}
		// The self-tracer records the scheduler's own execution; it rides
		// along only when the run writes trace files anyway.
		var tracer *rats.Tracer
		if traceOut != "" {
			tracer = rats.NewTracer(0)
			opts = append(opts, rats.WithObserver(tracer))
		}
		s := rats.New(opts...)
		res, err := s.Schedule(d)
		if err != nil {
			return err
		}
		if asJSON {
			if err := enc.Encode(res); err != nil {
				return err
			}
		} else {
			rel := ""
			if v.strategy == rats.Baseline {
				base = res.Makespan
			} else if base > 0 {
				rel = fmt.Sprintf("  (%.3f of HCPA)", res.Makespan/base)
			}
			fmt.Printf("%-10s makespan %8.3f s%s\n", v.name, res.Makespan, rel)
			fmt.Printf("%-10s estimate %8.3f s, work %.1f proc·s, wire %.3g MB in %d flows\n",
				"", res.Estimate, res.TotalWork, res.RemoteBytes/1e6, res.FlowCount)
			fmt.Printf("%-10s %s\n", "", res.Stats())
			if counters {
				c := res.Counters
				fmt.Printf("%-10s counters dedup-skip %.1f%%, scratch-solve %.1f%% (%d/%d), align exact/greedy %d/%d, levels replayed/recommitted/inserted %d/%d/%d\n",
					"", c.DedupSkipPct(),
					c.ScratchSolvePct(), c.SolvesScratch, c.SolvesFull+c.SolvesIncremental+c.SolvesScratch,
					c.AlignExact, c.AlignGreedy, c.LevelsReplayed, c.LevelsRecommitted, c.LevelsInserted)
			}
			if gantt {
				fmt.Println(res.Gantt(100))
			}
		}
		if traceOut != "" {
			path := fmt.Sprintf("%s-%s.json", traceOut, v.name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.ChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if !asJSON {
				fmt.Printf("%-10s trace written to %s\n", "", path)
			}
			schedPath := fmt.Sprintf("%s-%s-sched.json", traceOut, v.name)
			sf, err := os.Create(schedPath)
			if err != nil {
				return err
			}
			if err := tracer.WriteChromeTrace(sf); err != nil {
				sf.Close()
				return err
			}
			if err := sf.Close(); err != nil {
				return err
			}
			if !asJSON {
				fmt.Printf("%-10s scheduler self-trace written to %s\n", "", schedPath)
			}
			tracer.Reset()
		}
		if !asJSON {
			fmt.Println()
		}
	}
	return nil
}
