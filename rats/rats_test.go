package rats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/simdag"
)

func chainDAG(t *testing.T) *DAG {
	t.Helper()
	d := NewDAG()
	for _, name := range []string{"T1", "T2", "T3"} {
		d.Task(name, TaskSpec{Elements: 40e6, OpsFactor: 200, Alpha: 0.05})
	}
	d.Edge("T1", "T2").Edge("T2", "T3")
	if err := d.Err(); err != nil {
		t.Fatalf("chain builder error: %v", err)
	}
	return d
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]*DAG{
		"empty name": NewDAG().Task("", TaskSpec{Elements: 1e7, OpsFactor: 64}),
		"duplicate name": NewDAG().
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}),
		"non-positive elements": NewDAG().Task("a", TaskSpec{OpsFactor: 64}),
		"alpha out of range":    NewDAG().Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64, Alpha: 1}),
		"unknown edge source": NewDAG().
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			Edge("nope", "a"),
		"unknown edge target": NewDAG().
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			Edge("a", "nope"),
		"negative payload": NewDAG().
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			Task("b", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			EdgeBytes("a", "b", -1),
		"infinite payload": NewDAG().
			Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			Task("b", TaskSpec{Elements: 1e7, OpsFactor: 64}).
			EdgeBytes("a", "b", math.Inf(1)),
		"work overflows": NewDAG().Task("a", TaskSpec{Elements: 1e308, OpsFactor: 64}),
		"empty graph":    NewDAG(),
		"bad fft k":      FFT(3, 1),
		"bad random":     Random(RandomSpec{N: 0}),
	}
	for name, d := range cases {
		if err := d.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
		if _, err := New().Schedule(d); err == nil {
			t.Errorf("%s: Schedule succeeded, want error", name)
		}
	}
}

// TestRandomSpecRanges checks that Random rejects, through the DAG's build
// error, every spec outside the ranges RandomSpec documents, and builds
// the range boundaries.
func TestRandomSpecRanges(t *testing.T) {
	ok := RandomSpec{N: 10, Width: 0.5, Regularity: 0.5, Density: 0.5, Seed: 1}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		edit  func(*RandomSpec)
		field string // named by the error; "" for a valid spec
	}{
		{"width 0", func(s *RandomSpec) { s.Width = 0 }, "Width"},
		{"width -1", func(s *RandomSpec) { s.Width = -1 }, "Width"},
		{"width 2", func(s *RandomSpec) { s.Width = 2 }, "Width"},
		{"width NaN", func(s *RandomSpec) { s.Width = nan }, "Width"},
		{"width +Inf", func(s *RandomSpec) { s.Width = inf }, "Width"},
		{"regularity -3", func(s *RandomSpec) { s.Regularity = -3 }, "Regularity"},
		{"regularity 1.5", func(s *RandomSpec) { s.Regularity = 1.5 }, "Regularity"},
		{"regularity NaN", func(s *RandomSpec) { s.Regularity = nan }, "Regularity"},
		{"density 0", func(s *RandomSpec) { s.Density = 0 }, "Density"},
		{"density 5", func(s *RandomSpec) { s.Density = 5 }, "Density"},
		{"density -Inf", func(s *RandomSpec) { s.Density = -inf }, "Density"},
		{"n 0", func(s *RandomSpec) { s.N = 0 }, "N"},
		{"upper bounds", func(s *RandomSpec) { s.Width, s.Regularity, s.Density = 1, 1, 1 }, ""},
		{"regularity 0", func(s *RandomSpec) { s.Regularity = 0 }, ""},
	} {
		spec := ok
		c.edit(&spec)
		for _, layered := range []bool{false, true} {
			spec.Layered = layered
			err := Random(spec).Build()
			switch {
			case c.field == "" && err != nil:
				t.Errorf("%s (layered %v): Build failed: %v", c.name, layered, err)
			case c.field != "" && (err == nil || !strings.Contains(err.Error(), "RandomSpec."+c.field+" ")):
				t.Errorf("%s (layered %v): Build error %v, want one naming RandomSpec.%s", c.name, layered, err, c.field)
			}
		}
	}
}

func TestBuilderKeepsFirstError(t *testing.T) {
	d := NewDAG().
		Task("", TaskSpec{}).
		Task("ok", TaskSpec{Elements: 1e7, OpsFactor: 64})
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("Err() = %v, want the first (empty-name) error", d.Err())
	}
}

func TestBuilderPanicsAfterFinalize(t *testing.T) {
	d := chainDAG(t)
	if err := d.Build(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Task on a finalized DAG did not panic")
		}
	}()
	d.Task("late", TaskSpec{Elements: 1e7, OpsFactor: 64})
}

func TestCyclicDAGFailsValidation(t *testing.T) {
	d := NewDAG().
		Task("a", TaskSpec{Elements: 1e7, OpsFactor: 64}).
		Task("b", TaskSpec{Elements: 1e7, OpsFactor: 64}).
		Edge("a", "b").Edge("b", "a")
	if err := d.Build(); err == nil {
		t.Fatal("cyclic DAG built successfully")
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Baseline, Delta, TimeCost} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for name, want := range map[string]Strategy{
		"hcpa": Baseline, "none": Baseline, "BASELINE": Baseline,
		"timecost": TimeCost, "tc": TimeCost, " delta ": Delta,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus name")
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Errorf("out-of-range Strategy stringified to %q", Strategy(42).String())
	}
	if _, err := New(WithStrategy(Strategy(42))).Schedule(chainDAG(t)); err == nil {
		t.Error("Schedule accepted an out-of-range strategy")
	}
}

func TestAllocatorRoundTrip(t *testing.T) {
	for _, a := range []Allocator{CPA, HCPA, MCPA} {
		got, err := ParseAllocator(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAllocator(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if _, err := ParseAllocator("bogus"); err == nil {
		t.Error("ParseAllocator accepted bogus name")
	}
	if Allocator(7).String() != "Allocator(7)" {
		t.Errorf("out-of-range Allocator stringified to %q", Allocator(7).String())
	}
	if _, err := New(WithAllocator(Allocator(7))).Schedule(chainDAG(t)); err == nil {
		t.Error("Schedule accepted an out-of-range allocator")
	}
}

func TestClusterPresets(t *testing.T) {
	for _, tc := range []struct {
		c     *Cluster
		name  string
		procs int
	}{
		{Chti(), "chti", 20},
		{Grillon(), "grillon", 47},
		{Grelon(), "grelon", 120},
		{Big512(), "big512", 512},
		{Big1024(), "big1024", 1024},
	} {
		if tc.c.Name() != tc.name || tc.c.Procs() != tc.procs {
			t.Errorf("preset %s: got (%s, %d)", tc.name, tc.c.Name(), tc.c.Procs())
		}
		byName, err := ClusterByName(tc.name)
		if err != nil || byName.Procs() != tc.procs {
			t.Errorf("ClusterByName(%s) = %v, %v", tc.name, byName, err)
		}
	}
	if !Grelon().Hierarchical() || Grelon().Cabinets() != 5 {
		t.Error("grelon should be hierarchical with 5 cabinets")
	}
	if !Big512().Hierarchical() || Big512().Cabinets() != 16 {
		t.Error("big512 should be hierarchical with 16 cabinets")
	}
	if !Big1024().Hierarchical() || Big1024().Cabinets() != 32 {
		t.Error("big1024 should be hierarchical with 32 cabinets")
	}
	if _, err := ClusterByName("bogus"); err == nil {
		t.Error("ClusterByName accepted bogus name")
	}
}

func TestNewClusterDefaultsAndValidation(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Procs: 10, SpeedGFlops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.LinkBandwidth() != platform.GigabitBandwidth || c.LinkLatency() != platform.GigabitLatency {
		t.Error("NewCluster did not default to gigabit link figures")
	}
	if c.Name() == "" {
		t.Error("NewCluster left the name empty")
	}
	if _, err := NewCluster(ClusterSpec{Procs: 0, SpeedGFlops: 2}); err == nil {
		t.Error("NewCluster accepted zero processors")
	}
	if _, err := NewCluster(ClusterSpec{Procs: 4, SpeedGFlops: -1}); err == nil {
		t.Error("NewCluster accepted negative speed")
	}
	hier, err := NewCluster(ClusterSpec{Procs: 48, SpeedGFlops: 2, CabinetSize: 24})
	if err != nil || !hier.Hierarchical() || hier.Cabinets() != 2 {
		t.Errorf("hierarchical NewCluster = %+v, %v", hier, err)
	}
}

func TestOptionErrors(t *testing.T) {
	nan := math.NaN()
	bad := []*Scheduler{
		New(WithCluster(nil)),
		New(WithDeltaBounds(0.1, 0.5)),
		New(WithDeltaBounds(-0.5, -0.1)),
		New(WithMinRho(0)),
		New(WithMinRho(1.5)),
		New(WithWorkers(0)),
		New(WithFixedAllocation()),
		// NaN makes every ordinary range check vacuously false and ±Inf
		// poisons the δ bounds; both must be configuration errors.
		New(WithDeltaBounds(nan, 0.5)),
		New(WithDeltaBounds(-0.5, nan)),
		New(WithDeltaBounds(math.Inf(-1), 0.5)),
		New(WithDeltaBounds(-0.5, math.Inf(1))),
		New(WithMinRho(nan)),
	}
	for i, s := range bad {
		if _, err := s.Schedule(chainDAG(t)); err == nil {
			t.Errorf("bad option %d: Schedule succeeded, want error", i)
		}
	}
}

func TestFixedAllocationValidation(t *testing.T) {
	for name, s := range map[string]*Scheduler{
		"too short":  New(WithFixedAllocation(8, 10)),
		"too long":   New(WithFixedAllocation(8, 10, 9, 4)),
		"zero procs": New(WithFixedAllocation(8, 0, 9)),
		"over P":     New(WithFixedAllocation(8, 10, 999)),
	} {
		if _, err := s.Schedule(chainDAG(t)); err == nil {
			t.Errorf("%s: Schedule succeeded, want error", name)
		}
	}
}

// TestFacadeMatchesInternalPipeline locks the facade to the reproduction:
// for every strategy, Schedule must produce exactly the makespan, work and
// traffic of the hand-assembled internal pipeline.
func TestFacadeMatchesInternalPipeline(t *testing.T) {
	cl := platform.Grelon()
	for _, tc := range []struct {
		strategy Strategy
		opts     core.Options
	}{
		{Baseline, core.DefaultNaive(core.StrategyNone)},
		{Delta, core.DefaultNaive(core.StrategyDelta)},
		{TimeCost, core.DefaultNaive(core.StrategyTimeCost)},
	} {
		g := gen.FFT(8, 42)
		costs := moldable.NewCosts(g, cl.SpeedGFlops)
		allocation := alloc.Compute(g, costs, cl, alloc.DefaultOptions())
		sched := core.Map(g, costs, cl, allocation, tc.opts)
		want, err := simdag.Execute(g, costs, cl, sched)
		if err != nil {
			t.Fatal(err)
		}

		res, err := New(WithCluster(Grelon()), WithStrategy(tc.strategy)).Schedule(FFT(8, 42))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != want.Makespan || res.RemoteBytes != want.RemoteBytes ||
			res.TotalWork != sched.TotalWork || res.FlowCount != want.FlowCount {
			t.Errorf("%v: facade (%g s, %g B, %g proc·s, %d flows) != internal (%g s, %g B, %g proc·s, %d flows)",
				tc.strategy, res.Makespan, res.RemoteBytes, res.TotalWork, res.FlowCount,
				want.Makespan, want.RemoteBytes, sched.TotalWork, want.FlowCount)
		}
	}
}

func TestScheduleResultShape(t *testing.T) {
	d := Strassen(7)
	res, err := New(WithCluster(Chti()), WithStrategy(TimeCost)).Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.Estimate <= 0 || res.TotalWork <= 0 {
		t.Fatalf("non-positive headline metrics: %+v", res)
	}
	if len(res.Placements) != d.TaskCount() {
		t.Fatalf("%d placements for %d real tasks", len(res.Placements), d.TaskCount())
	}
	allocs := res.Allocations()
	for i, p := range res.Placements {
		if len(p.Procs) == 0 || len(p.Procs) != allocs[i] {
			t.Fatalf("placement %d (%s): procs %v vs alloc %d", i, p.Name, p.Procs, allocs[i])
		}
		if p.Finish < p.Start {
			t.Fatalf("placement %d finishes before it starts", i)
		}
	}
	st := res.Stats()
	if st.Makespan != res.Makespan || st.ProcsUsed <= 0 || st.FreeEdges+st.PaidEdges == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if !strings.Contains(st.String(), "makespan") {
		t.Fatalf("Stats.String: %q", st.String())
	}
	if g := res.Gantt(40); !strings.Contains(g, "makespan") {
		t.Fatalf("Gantt output: %q", g)
	}
	var buf bytes.Buffer
	if err := res.ChromeTrace(&buf); err != nil || !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatalf("ChromeTrace: %v, %q", err, buf.String())
	}
}

func TestDAGJSONRoundTrip(t *testing.T) {
	orig := FFT(4, 7)
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded DAG
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != orig.Name || decoded.TaskCount() != orig.TaskCount() ||
		decoded.EdgeCount() != orig.EdgeCount() {
		t.Fatalf("round-trip mismatch: %s %d/%d vs %s %d/%d", decoded.Name,
			decoded.TaskCount(), decoded.EdgeCount(), orig.Name, orig.TaskCount(), orig.EdgeCount())
	}
	s := New(WithStrategy(Delta))
	a, err := s.Schedule(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("decoded DAG schedules to %g, original to %g", b.Makespan, a.Makespan)
	}
	// A finalized DAG may be read concurrently by schedulers; unmarshaling
	// into it would mutate it in place and must be refused.
	if err := json.Unmarshal(blob, orig); err == nil ||
		!strings.Contains(err.Error(), "finalized") {
		t.Fatalf("Unmarshal into a finalized DAG: %v, want a finalized-DAG error", err)
	}
}

func TestResultJSON(t *testing.T) {
	res, err := New(WithStrategy(Delta), WithAllocator(MCPA)).Schedule(FFT(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		DAG        string  `json:"dag"`
		Cluster    string  `json:"cluster"`
		Strategy   string  `json:"strategy"`
		Allocator  string  `json:"allocator"`
		Makespan   float64 `json:"makespan"`
		Placements []struct {
			Name  string `json:"name"`
			Procs []int  `json:"procs"`
		} `json:"placements"`
		Stats Stats `json:"stats"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Strategy != "delta" || decoded.Allocator != "mcpa" ||
		decoded.Cluster != "grillon" || decoded.Makespan != res.Makespan {
		t.Fatalf("JSON headline fields: %+v", decoded)
	}
	if st, err := ParseStrategy(decoded.Strategy); err != nil || st != Delta {
		t.Fatalf("strategy field does not round-trip: %v, %v", st, err)
	}
	if len(decoded.Placements) != len(res.Placements) || decoded.Stats.Makespan != res.Makespan {
		t.Fatalf("JSON payload mismatch: %d placements, stats %+v", len(decoded.Placements), decoded.Stats)
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := chainDAG(t).WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "T1") {
		t.Fatalf("DOT output: %q", out)
	}
}
