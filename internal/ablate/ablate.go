// Package ablate is the exactness-renegotiation harness: it runs every
// scenario class (paper-scale grelon, the big512/big1024 production
// scales, and both heterogeneous presets) under all five strategy ×
// allocator combinations while sweeping the pipeline's one approximation
// option — the receiver rank-alignment mode — and reports, per
// configuration, the makespan delta against the exact reference,
// mapping-latency percentiles, replay latency of the schedules the
// configuration changed, and the summed engine counters from internal/obs.
//
// The report is the evidence base for AlignAuto as the library default
// (the "fast" configuration). The cap ladder and scratch-threshold sweep
// that fixed redist.AlignAutoExactCap and flownet.DefaultScratchThreshold
// are recorded in docs/ablation_pr10.json. Re-run it with
// `expdriver -ablate` whenever alignment semantics change;
// `-ablate -smoke` is the CI-sized subset.
package ablate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redist"
	"repro/internal/simdag"
)

// Config is a named alignment configuration.
type Config struct {
	Name  string
	Align redist.AlignMode
}

// Reference returns the exact configuration, Hungarian alignment: the
// delta baseline of every report.
func Reference() Config {
	return Config{Name: "reference", Align: redist.AlignHungarian}
}

// Fast returns the library default configuration, AlignAuto (exact up to
// redist.AlignAutoExactCap receivers, greedy above).
func Fast() Config {
	return Config{Name: "fast", Align: redist.AlignAuto}
}

// Configs enumerates the full sweep: the reference, the two cheaper
// alignment modes in isolation, and the shipped default.
func Configs() []Config {
	return []Config{
		Reference(),
		{Name: "align-none", Align: redist.AlignNone},
		{Name: "align-greedy", Align: redist.AlignGreedy},
		Fast(),
	}
}

// Class pairs a scenario subset with the cluster it runs on.
type Class struct {
	Name    string
	Cluster *platform.Cluster
	Scens   []exp.Scenario
	// Note documents what the class caps away (the big replays cost
	// seconds to minutes each; silent truncation would read as full
	// coverage).
	Note string
}

// pick selects scenarios by index, preserving order.
func pick(scens []exp.Scenario, idx ...int) []exp.Scenario {
	out := make([]exp.Scenario, 0, len(idx))
	for _, i := range idx {
		out = append(out, scens[i])
	}
	return out
}

// Classes enumerates the scenario classes of the ablation. The paper
// class runs on grelon (the hierarchical paper preset — ScalePaper's
// default grillon is flat, which would blind the sweep to the cabinet
// links); the big classes keep one scenario per application shape
// because a single 400-task replay costs ~13 s on this harness's
// reference hardware and the alignment deltas stabilize immediately.
func Classes(smoke bool) []Class {
	paper := exp.Scenarios()
	if smoke {
		return []Class{
			{
				Name:    "grelon",
				Cluster: platform.Grelon(),
				Scens:   pick(paper, 0, 474),
				Note:    "smoke: 2 of 557 paper scenarios (one layered, one FFT)",
			},
			{
				Name:    "grelon-het",
				Cluster: platform.GrelonHet(),
				Scens:   pick(exp.ScenariosAt(exp.ScaleGrelonHet), 0, 32),
				Note:    "smoke: 2 of 36 het scenarios (one layered, one FFT)",
			},
		}
	}
	big512 := exp.ScenariosAt(exp.ScaleBig512)
	big512Het := exp.ScenariosAt(exp.ScaleBig512Het)
	big1024 := exp.ScenariosAt(exp.ScaleBig1024)
	return []Class{
		{
			Name:    "grelon",
			Cluster: platform.Grelon(),
			Scens:   exp.Subsample(paper, 79),
			Note:    "8 of 557 paper scenarios (stride 79: covers all four application kinds)",
		},
		{
			Name:    "grelon-het",
			Cluster: platform.GrelonHet(),
			Scens:   append(pick(exp.ScenariosAt(exp.ScaleGrelonHet), 32), exp.Subsample(exp.ScenariosAt(exp.ScaleGrelonHet), 6)...),
			Note:    "7 of 36 het scenarios (stride 6 plus one FFT)",
		},
		{
			Name:    "big512",
			Cluster: platform.Big512(),
			Scens:   pick(big512, 0, 16, 32),
			Note:    "3 of 36 big512 scenarios (layered n=200, irregular n=200, FFT k=32; n=400 randoms dropped — minutes per replay)",
		},
		{
			Name:    "big512-het",
			Cluster: platform.Big512Het(),
			Scens:   pick(big512Het, 0, 16, 32),
			Note:    "3 of 36 big512-het scenarios (same shapes as big512)",
		},
		{
			Name:    "big1024",
			Cluster: platform.Big1024(),
			Scens:   pick(big1024, 32, 33),
			Note:    "2 of 36 big1024 scenarios (FFT k=64 only; n=400/800 randoms dropped — minutes per replay)",
		},
	}
}

// Options configures a Run. Zero values select the full sweep.
type Options struct {
	// Smoke shrinks everything to the CI-sized subset: two paper-scale
	// classes, two scenarios each, the three naive algorithms, and only
	// the reference and fast configurations.
	Smoke bool
	// Configs overrides the sweep (nil = Configs(), or
	// {Reference(), Fast()} in smoke mode). The first entry must be the
	// reference — deltas are measured against it.
	Configs []Config
	// Classes overrides the scenario classes (nil = Classes(Smoke)).
	Classes []Class
	// Algos overrides the algorithm set (nil = exp.ExtendedAlgos(), or
	// exp.NaiveAlgos() in smoke mode).
	Algos []exp.AlgoSpec
	// Log, when non-nil, receives one progress line per (class, config).
	Log io.Writer
}

// Report is the machine-readable ablation outcome.
type Report struct {
	Mode    string        `json:"mode"` // "full" or "smoke"
	Classes []ClassReport `json:"classes"`
}

// ClassReport aggregates one scenario class.
type ClassReport struct {
	Class     string         `json:"class"`
	Cluster   string         `json:"cluster"`
	Note      string         `json:"note,omitempty"`
	Scenarios []string       `json:"scenarios"`
	Algos     []string       `json:"algos"`
	Configs   []ConfigReport `json:"configs"`
}

// ConfigReport is one configuration's measurements on one class.
// Latencies are wall-clock nanoseconds on the run's hardware; deltas are
// relative to the class's reference configuration.
type ConfigReport struct {
	Name  string `json:"name"`
	Align string `json:"align"`

	Runs int `json:"runs"` // scenario × algorithm pairs

	MapMeanNs int64 `json:"map_mean_ns"`
	MapP50Ns  int64 `json:"map_p50_ns"`
	MapP99Ns  int64 `json:"map_p99_ns"`
	// MapSpeedup is reference MapMeanNs over this configuration's.
	MapSpeedup float64 `json:"map_speedup_vs_reference"`

	// Replay latency over the replays this configuration actually ran
	// fresh (schedule signatures no earlier configuration replayed);
	// configurations whose schedules all collapse onto already-replayed
	// signatures report zeros here.
	FreshReplays int   `json:"fresh_replays"`
	ReplayP50Ns  int64 `json:"replay_p50_ns"`
	ReplayP99Ns  int64 `json:"replay_p99_ns"`

	MeanDeltaPct   float64 `json:"mean_makespan_delta_pct"`
	MaxAbsDeltaPct float64 `json:"max_abs_makespan_delta_pct"`
	// ChangedSchedules counts (scenario, algorithm) pairs whose schedule
	// signature diverged from the reference configuration's.
	ChangedSchedules int `json:"changed_schedules"`

	// Counters sums the mapping counters of every run plus the replay
	// counters of the fresh replays.
	Counters obs.Counters `json:"counters"`
}

// scenState caches the per-scenario inputs shared by every configuration:
// the graph, the cost oracle, and one allocation per algorithm spec.
type scenState struct {
	g      *dag.Graph
	costs  *moldable.Costs
	allocs [][]int
}

// signature serializes the replay-relevant parts of a schedule, mirroring
// the exp runner's memo key: identical signatures replay identically.
func signature(s *core.Schedule) string {
	var b []byte
	for _, procs := range s.Procs {
		b = binary.AppendVarint(b, int64(len(procs)))
		for _, p := range procs {
			b = binary.AppendVarint(b, int64(p))
		}
	}
	for _, t := range s.Order {
		b = binary.AppendVarint(b, int64(t))
	}
	return string(b)
}

// percentile returns the p-th percentile (nearest-rank) of sorted ns.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func stats(ns []int64) (mean, p50, p99 int64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	return sum / int64(len(sorted)), percentile(sorted, 50), percentile(sorted, 99)
}

// Run executes the ablation and returns the report. Mapping runs are
// serial on one pooled MapContext per class (latency measurements need an
// unloaded core more than the sweep needs wall-clock); replays are
// memoized per (scenario, schedule signature), so configurations that do
// not change schedules pay no replay cost beyond the reference.
func Run(opts Options) (*Report, error) {
	classes := opts.Classes
	if classes == nil {
		classes = Classes(opts.Smoke)
	}
	configs := opts.Configs
	if configs == nil {
		if opts.Smoke {
			configs = []Config{Reference(), Fast()}
		} else {
			configs = Configs()
		}
	}
	if len(configs) == 0 || configs[0].Name != Reference().Name {
		return nil, fmt.Errorf("ablate: configs must start with the reference (got %d configs)", len(configs))
	}
	algos := opts.Algos
	if algos == nil {
		if opts.Smoke {
			algos = exp.NaiveAlgos()
		} else {
			algos = exp.ExtendedAlgos()
		}
	}
	logf := func(format string, a ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format, a...)
		}
	}

	rep := &Report{Mode: "full"}
	if opts.Smoke {
		rep.Mode = "smoke"
	}
	for _, class := range classes {
		cl := class.Cluster
		cr := ClassReport{Class: class.Name, Cluster: cl.Name, Note: class.Note}
		for _, s := range class.Scens {
			cr.Scenarios = append(cr.Scenarios, s.Name())
		}
		for _, a := range algos {
			cr.Algos = append(cr.Algos, a.Name)
		}

		// Shared per-scenario inputs and one warm-up pass so the first
		// timed configuration does not absorb the context's cold-start
		// allocations.
		mc := core.NewMapContext(cl)
		states := make([]scenState, len(class.Scens))
		for si, sc := range class.Scens {
			g := sc.Graph()
			costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
			st := scenState{g: g, costs: costs, allocs: make([][]int, len(algos))}
			shared := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
			for ai, spec := range algos {
				if spec.Alloc != nil {
					st.allocs[ai] = alloc.Compute(g, costs, cl, *spec.Alloc)
				} else {
					st.allocs[ai] = shared
				}
				mc.Map(g, costs, st.allocs[ai], spec.Map) // warm-up
			}
			states[si] = st
		}

		type replayRes struct {
			makespan float64
			counters obs.Counters
		}
		replays := map[string]replayRes{}
		refMakespan := make([][]float64, len(algos))
		refSig := make([][]string, len(algos))
		for ai := range algos {
			refMakespan[ai] = make([]float64, len(class.Scens))
			refSig[ai] = make([]string, len(class.Scens))
		}

		var refMapMean int64
		for ci, cfg := range configs {
			start := time.Now()
			var (
				mapNs, replayNs []int64
				counters        obs.Counters
				deltaSum        float64
				maxAbsDelta     float64
				changed, runs   int
				fresh           int
			)
			for si := range class.Scens {
				st := &states[si]
				for ai, spec := range algos {
					mo := spec.Map
					mo.Align = cfg.Align
					t0 := time.Now()
					sched := mc.Map(st.g, st.costs, st.allocs[ai], mo)
					mapNs = append(mapNs, time.Since(t0).Nanoseconds())
					counters.Add(&sched.Counters)
					runs++

					sig := signature(sched)
					key := fmt.Sprintf("%d|%s", si, sig)
					res, ok := replays[key]
					if !ok {
						t1 := time.Now()
						out, err := simdag.Execute(st.g, st.costs, cl, sched)
						if err != nil {
							return nil, fmt.Errorf("ablate %s/%s/%s: %w", class.Name, cfg.Name, spec.Name, err)
						}
						replayNs = append(replayNs, time.Since(t1).Nanoseconds())
						res = replayRes{makespan: out.Makespan, counters: out.Counters}
						replays[key] = res
						counters.Add(&res.counters)
						fresh++
					}
					if ci == 0 {
						refMakespan[ai][si] = res.makespan
						refSig[ai][si] = sig
					} else {
						ref := refMakespan[ai][si]
						if ref > 0 {
							d := 100 * (res.makespan - ref) / ref
							deltaSum += d
							if math.Abs(d) > maxAbsDelta {
								maxAbsDelta = math.Abs(d)
							}
						}
						if sig != refSig[ai][si] {
							changed++
						}
					}
				}
			}

			mapMean, mapP50, mapP99 := stats(mapNs)
			_, repP50, repP99 := stats(replayNs)
			if ci == 0 {
				refMapMean = mapMean
			}
			speedup := 0.0
			if mapMean > 0 {
				speedup = float64(refMapMean) / float64(mapMean)
			}
			cfgRep := ConfigReport{
				Name:             cfg.Name,
				Align:            cfg.Align.String(),
				Runs:             runs,
				MapMeanNs:        mapMean,
				MapP50Ns:         mapP50,
				MapP99Ns:         mapP99,
				MapSpeedup:       speedup,
				FreshReplays:     fresh,
				ReplayP50Ns:      repP50,
				ReplayP99Ns:      repP99,
				MaxAbsDeltaPct:   maxAbsDelta,
				ChangedSchedules: changed,
				Counters:         counters,
			}
			if ci > 0 && runs > 0 {
				cfgRep.MeanDeltaPct = deltaSum / float64(runs)
			}
			cr.Configs = append(cr.Configs, cfgRep)
			logf("ablate %-11s %-12s map p50 %8s  speedup %.2fx  maxΔ %.3f%%  changed %d  (%v)\n",
				class.Name, cfg.Name, time.Duration(mapP50), speedup, maxAbsDelta, changed,
				time.Since(start).Round(time.Millisecond))
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteSummary renders the human-readable per-class tables.
func (r *Report) WriteSummary(w io.Writer) {
	for _, c := range r.Classes {
		fmt.Fprintf(w, "== ablation %s on %s (%d scenarios × %d algorithms) ==\n",
			c.Class, c.Cluster, len(c.Scenarios), len(c.Algos))
		if c.Note != "" {
			fmt.Fprintf(w, "   %s\n", c.Note)
		}
		fmt.Fprintf(w, "%-12s %10s %10s %8s %9s %8s %8s %7s\n",
			"config", "map p50", "map p99", "speedup", "maxΔ%", "repl p50", "repl p99", "changed")
		for _, cfg := range c.Configs {
			fmt.Fprintf(w, "%-12s %10v %10v %7.2fx %9.3f %8v %8v %7d\n",
				cfg.Name,
				time.Duration(cfg.MapP50Ns).Round(time.Microsecond),
				time.Duration(cfg.MapP99Ns).Round(time.Microsecond),
				cfg.MapSpeedup, cfg.MaxAbsDeltaPct,
				time.Duration(cfg.ReplayP50Ns).Round(time.Microsecond),
				time.Duration(cfg.ReplayP99Ns).Round(time.Microsecond),
				cfg.ChangedSchedules)
		}
		fmt.Fprintln(w)
	}
}
