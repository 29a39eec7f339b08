// Command benchtraj runs a hot-path benchmark family and appends one
// trajectory entry per invocation to a JSON file tracked in the
// repository, so the performance of the scheduling pipeline is recorded PR
// over PR instead of living in commit messages.
//
// Usage:
//
//	benchtraj [-family alloc|sim|map] [-file FILE] [-benchtime 3x] [-label NAME] [-smoke]
//
// The alloc family (default, BENCH_alloc.json) runs the allocation,
// mapping and redistribution-estimation benchmarks; its derived summary is
// the geometric-mean speedup of the incremental allocator over the
// preserved full-rewalk reference, per cluster preset. The sim family
// (BENCH_sim.json) runs the BenchmarkSim replay benches — Table III
// layered DAGs on grillon and grelon plus the big512/big1024 scenario
// classes, replayed under both the incremental flownet engine and the
// from-scratch maxmin reference — and derives per cluster the
// geometric-mean replay speedup and allocation reduction of flownet over
// the reference. The map family (BENCH_map.json) runs the full mapping
// phase (BenchmarkMap, cluster × width) and derives the per-cluster
// geometric means of ns/op and allocs/op — the trajectory of the sparse
// allocation-free alignment path.
//
// -smoke runs the suite at -benchtime 1x and prints the entry to stdout
// without touching the file: CI uses it to prove the wiring (benchmarks
// compile, parse, and produce a well-formed entry) without committing
// noise-level measurements from shared runners. Real trajectory points
// are appended locally and committed with the PR that changed the hot
// path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Measurement is one parsed benchmark result line.
type Measurement struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_op"`
	BPerOp    float64 `json:"b_op,omitempty"`
	AllocsOp  float64 `json:"allocs_op,omitempty"`
	MallocsOp float64 `json:"mallocs_op,omitempty"`

	// Engine counter rate (b.ReportMetric unit of the sim family).
	ScratchSolves float64 `json:"scratch_solve_pct,omitempty"`
}

// Entry is one trajectory point.
type Entry struct {
	Label         string             `json:"label"`
	Commit        string             `json:"commit,omitempty"`
	Date          string             `json:"date"`
	GoVersion     string             `json:"go_version"`
	Benchtime     string             `json:"benchtime"`
	RecomputeTime string             `json:"recompute_benchtime,omitempty"`
	AllocSpeed    map[string]float64 `json:"alloc_speedup_geomean,omitempty"`
	SimSpeed      map[string]float64 `json:"sim_speedup_geomean,omitempty"`
	SimAllocRatio map[string]float64 `json:"sim_allocs_ratio_geomean,omitempty"`
	MapNs         map[string]float64 `json:"map_ns_geomean,omitempty"`
	MapAllocs     map[string]float64 `json:"map_allocs_mean,omitempty"`
	SimScratch    map[string]float64 `json:"sim_scratch_solve_pct,omitempty"`
	Benchmarks    []Measurement      `json:"benchmarks"`
}

func main() {
	family := flag.String("family", "alloc", "benchmark family: alloc (allocation/mapping/estimation), sim (flow-level replay) or map (mapping phase)")
	file := flag.String("file", "", "trajectory file to append to (default: BENCH_<family>.json)")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	label := flag.String("label", "", "entry label (default: current git short hash)")
	pattern := flag.String("bench", "", "benchmark pattern override (default: the family's pattern)")
	smoke := flag.Bool("smoke", false, "run at -benchtime 1x and print the entry instead of appending")
	flag.Parse()

	if *file == "" {
		*file = "BENCH_" + *family + ".json"
	}
	switch *family {
	case "alloc", "sim", "map":
	default:
		fmt.Fprintf(os.Stderr, "benchtraj: unknown family %q (want alloc, sim or map)\n", *family)
		os.Exit(1)
	}
	if *pattern == "" {
		switch *family {
		case "alloc":
			*pattern = "^(BenchmarkAlloc|BenchmarkMap|BenchmarkRedistTime)$"
		case "map":
			*pattern = "^BenchmarkMap$"
		case "sim":
			*pattern = "^BenchmarkSim$"
			if *smoke {
				// Wiring proof only: the paper-scale and sub-second FFT
				// replays parse and derive identically to the full set,
				// without the multi-minute big layered replays on shared
				// runners.
				*pattern = "^BenchmarkSim$/.*/^(fft-|layered-n(25|50|100)$)"
			}
		}
	}

	if err := run(*family, *file, *benchtime, *label, *pattern, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

func run(family, file, benchtime, label, pattern string, smoke bool) error {
	if smoke {
		benchtime = "1x"
	}
	commit := gitShortHash()
	if label == "" {
		if commit != "" {
			label = commit
		} else {
			label = "local"
		}
	}

	// The full sim family at 3x runs longer than go test's default
	// 10-minute timeout on a 2-core box (the maxmin reference replays of
	// the 400-task big layered DAGs take about a minute each).
	out, err := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-benchmem", "-timeout", "2h", ".").CombinedOutput()
	if err != nil {
		return fmt.Errorf("go test -bench failed: %w\n%s", err, out)
	}
	ms := parseBenchOutput(string(out))
	if len(ms) == 0 {
		return fmt.Errorf("no benchmark lines parsed from go test output:\n%s", out)
	}
	recomputeBenchtime := ""
	if family == "sim" {
		// The steady-state recompute microbench needs a real iteration
		// count: replay benches run whole simulations per op, this one
		// runs one population change per op, and the allocs/op signal
		// only converges once the entity pools reach steady state.
		rt := "20000x"
		if smoke {
			rt = "2000x"
		}
		rout, err := exec.Command("go", "test", "-run", "^$", "-bench", "^BenchmarkRecompute$",
			"-benchtime", rt, "-benchmem", "./internal/flownet/").CombinedOutput()
		if err != nil {
			return fmt.Errorf("go test -bench recompute failed: %w\n%s", err, rout)
		}
		rms := parseBenchOutput(string(rout))
		if len(rms) == 0 {
			return fmt.Errorf("no benchmark lines parsed from recompute output:\n%s", rout)
		}
		ms = append(ms, rms...)
		recomputeBenchtime = rt
	}

	entry := Entry{
		Label:         label,
		Commit:        commit,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		Benchtime:     benchtime,
		RecomputeTime: recomputeBenchtime,
		Benchmarks:    ms,
	}
	switch family {
	case "alloc":
		entry.AllocSpeed = allocSpeedups(ms)
	case "sim":
		entry.SimSpeed = simRatios(ms, "BenchmarkSim", func(m Measurement) float64 { return m.NsPerOp })
		entry.SimAllocRatio = simRatios(ms, "BenchmarkRecompute", func(m Measurement) float64 { return m.MallocsOp })
		entry.SimScratch = simScratchPcts(ms)
	case "map":
		entry.MapNs = mapGeomeans(ms, func(m Measurement) float64 { return m.NsPerOp })
		entry.MapAllocs = mapMeans(ms, func(m Measurement) float64 { return m.AllocsOp })
	}

	if smoke {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(entry)
	}
	return appendEntry(file, entry)
}

// gitShortHash returns the current commit's short hash, or "" outside a
// git checkout.
func gitShortHash() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// parseBenchOutput extracts the benchmark lines from `go test -bench`
// output. A line looks like:
//
//	BenchmarkAlloc/big1024/n=400/w=0.5/incremental-8  30  25862661 ns/op  59296 B/op  353 allocs/op
func parseBenchOutput(out string) []Measurement {
	var ms []Measurement
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the GOMAXPROCS suffix.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := Measurement{Name: name}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BPerOp = v
			case "allocs/op":
				m.AllocsOp = v
			case "mallocs/op":
				m.MallocsOp = v
			case "scratch-solve-pct":
				m.ScratchSolves = v
			}
		}
		if m.NsPerOp > 0 {
			ms = append(ms, m)
		}
	}
	return ms
}

// allocSpeedups derives, per cluster, the geometric-mean ratio of the
// reference allocator's ns/op over the incremental engine's across every
// BenchmarkAlloc (cluster, n, width) shape.
func allocSpeedups(ms []Measurement) map[string]float64 {
	type pair struct{ inc, ref float64 }
	pairs := map[string]map[string]*pair{} // cluster -> shape -> times
	for _, m := range ms {
		parts := strings.Split(m.Name, "/")
		// BenchmarkAlloc/<cluster>/n=<n>/w=<w>/<engine>
		if len(parts) != 5 || parts[0] != "BenchmarkAlloc" {
			continue
		}
		cluster, shape, engine := parts[1], parts[2]+"/"+parts[3], parts[4]
		if pairs[cluster] == nil {
			pairs[cluster] = map[string]*pair{}
		}
		if pairs[cluster][shape] == nil {
			pairs[cluster][shape] = &pair{}
		}
		switch engine {
		case "incremental":
			pairs[cluster][shape].inc = m.NsPerOp
		case "reference":
			pairs[cluster][shape].ref = m.NsPerOp
		}
	}
	speed := map[string]float64{}
	for cluster, shapes := range pairs {
		logSum, n := 0.0, 0
		for _, p := range shapes {
			if p.inc > 0 && p.ref > 0 {
				logSum += math.Log(p.ref / p.inc)
				n++
			}
		}
		if n > 0 {
			speed[cluster] = math.Round(math.Exp(logSum/float64(n))*100) / 100
		}
	}
	if len(speed) == 0 {
		return nil
	}
	return speed
}

// simRatios derives, per cluster, the geometric-mean ratio of the maxmin
// reference engine over the flownet engine across a benchmark family's
// (cluster, scenario) shapes — BenchmarkSim/<cluster>/<scenario>/<engine>
// replays measured by ns/op give the end-to-end replay speedup,
// BenchmarkRecompute/<cluster>/<engine> measured by exact mallocs/op
// gives the allocation reduction on the steady-state recompute path.
func simRatios(ms []Measurement, bench string, metric func(Measurement) float64) map[string]float64 {
	type pair struct{ net, ref float64 }
	pairs := map[string]map[string]*pair{} // cluster -> scenario -> values
	for _, m := range ms {
		parts := strings.Split(m.Name, "/")
		if parts[0] != bench {
			continue
		}
		var cluster, scen, engine string
		switch len(parts) {
		case 4:
			cluster, scen, engine = parts[1], parts[2], parts[3]
		case 3:
			cluster, scen, engine = parts[1], "steady-churn", parts[2]
		default:
			continue
		}
		if pairs[cluster] == nil {
			pairs[cluster] = map[string]*pair{}
		}
		if pairs[cluster][scen] == nil {
			pairs[cluster][scen] = &pair{}
		}
		switch engine {
		case "flownet":
			pairs[cluster][scen].net = metric(m)
		case "maxmin":
			pairs[cluster][scen].ref = metric(m)
		}
	}
	ratio := map[string]float64{}
	for cluster, scens := range pairs {
		logSum, n := 0.0, 0
		for _, p := range scens {
			if p.net > 0 && p.ref > 0 {
				logSum += math.Log(p.ref / p.net)
				n++
			}
		}
		if n > 0 {
			ratio[cluster] = math.Round(math.Exp(logSum/float64(n))*100) / 100
		}
	}
	if len(ratio) == 0 {
		return nil
	}
	return ratio
}

// mapGeomeans derives, per cluster, the geometric mean of one metric over
// every BenchmarkMap/<cluster>/w=<w> width shape. Unlike the other
// families there is no in-benchmark reference engine to ratio against —
// the mapping engine is singular and pinned by golden digests — so the
// trajectory compares absolute per-cluster summaries across entries.
// Positive metrics only (ns/op always is).
func mapGeomeans(ms []Measurement, metric func(Measurement) float64) map[string]float64 {
	logSum := map[string]float64{}
	counts := map[string]int{}
	for _, m := range ms {
		cluster, ok := mapCluster(m.Name)
		if !ok {
			continue
		}
		if v := metric(m); v > 0 {
			logSum[cluster] += math.Log(v)
			counts[cluster]++
		}
	}
	out := map[string]float64{}
	for cluster, n := range counts {
		out[cluster] = math.Round(math.Exp(logSum[cluster]/float64(n))*100) / 100
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// mapMeans is the arithmetic counterpart for count metrics that can
// legitimately reach zero (allocs/op — the trajectory's end-goal), which a
// geometric mean would silently drop.
func mapMeans(ms []Measurement, metric func(Measurement) float64) map[string]float64 {
	sum := map[string]float64{}
	counts := map[string]int{}
	for _, m := range ms {
		cluster, ok := mapCluster(m.Name)
		if !ok {
			continue
		}
		sum[cluster] += metric(m)
		counts[cluster]++
	}
	out := map[string]float64{}
	for cluster, n := range counts {
		out[cluster] = math.Round(sum[cluster]/float64(n)*100) / 100
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// simScratchPcts derives, per cluster, the arithmetic mean of the
// scratch-solve-pct counter rate over the flownet replay shapes (the
// maxmin reference has no scratch path, so its points are skipped). The
// rate tracks how often the incremental engine's small-population scratch
// path fired — a workload-shape property the trajectory watches alongside
// the speedup it buys.
func simScratchPcts(ms []Measurement) map[string]float64 {
	sum := map[string]float64{}
	counts := map[string]int{}
	for _, m := range ms {
		parts := strings.Split(m.Name, "/")
		if len(parts) != 4 || parts[0] != "BenchmarkSim" || parts[3] != "flownet" {
			continue
		}
		sum[parts[1]] += m.ScratchSolves
		counts[parts[1]]++
	}
	out := map[string]float64{}
	for cluster, n := range counts {
		out[cluster] = math.Round(sum[cluster]/float64(n)*100) / 100
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// mapCluster extracts the aggregation key of a BenchmarkMap sub-benchmark.
// Exact-alignment oracle rows (BenchmarkMap/<cluster>/w=<w>, timing
// core.MapReference) keep the bare cluster key so the trajectory stays
// comparable with the earliest entries; core.Map rows
// (BenchmarkMap/<cluster>/w=<w>/auto) aggregate under "<cluster>/auto"
// (recorded as "<cluster>/fast" before the alignment option replaced the
// speed profiles).
func mapCluster(name string) (string, bool) {
	parts := strings.Split(name, "/")
	if parts[0] != "BenchmarkMap" {
		return "", false
	}
	switch {
	case len(parts) == 3:
		return parts[1], true
	case len(parts) == 4 && parts[3] == "auto":
		return parts[1] + "/auto", true
	}
	return "", false
}

// appendEntry reads the existing trajectory (if any), appends the entry
// and writes the file back with stable formatting and ordering. Existing
// entries pass through as raw JSON, so fields a later Entry no longer
// carries survive in the historical record.
func appendEntry(file string, entry Entry) error {
	var entries []json.RawMessage
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("existing %s is not a trajectory file: %w", file, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	sort.SliceStable(entry.Benchmarks, func(a, b int) bool {
		return entry.Benchmarks[a].Name < entry.Benchmarks[b].Name
	})
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	entries = append(entries, raw)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("appended %q to %s (%d entries, %d benchmarks)\n",
		entry.Label, file, len(entries), len(entry.Benchmarks))
	return nil
}
