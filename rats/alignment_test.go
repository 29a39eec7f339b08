package rats

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/redist"
)

// TestAlignmentRoundTrip: every defined mode's name parses back to itself,
// case-insensitively.
func TestAlignmentRoundTrip(t *testing.T) {
	for _, m := range []AlignmentMode{AlignmentHungarian, AlignmentGreedy, AlignmentNone, AlignmentAuto} {
		got, err := ParseAlignment(m.String())
		if err != nil || got != m {
			t.Errorf("ParseAlignment(%q) = (%v, %v), want (%v, nil)", m.String(), got, err, m)
		}
		upper, err := ParseAlignment("  " + strings.ToUpper(m.String()) + " ")
		if err != nil || upper != m {
			t.Errorf("ParseAlignment upper-case round-trip failed for %v", m)
		}
	}
	if _, err := ParseAlignment("optimal"); err == nil {
		t.Error("ParseAlignment must reject unknown names")
	}
	if s := AlignmentMode(42).String(); s != "AlignmentMode(42)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}

// TestWithAlignmentValidation: out-of-range modes are configuration errors
// surfaced by Schedule, like every other invalid option.
func TestWithAlignmentValidation(t *testing.T) {
	s := New(WithAlignment(AlignmentMode(42)))
	if _, err := s.Schedule(chainDAG(t)); err == nil {
		t.Fatal("Schedule must surface an invalid alignment mode")
	}
	ok := New(WithAlignment(AlignmentAuto))
	if ok.Alignment() != AlignmentAuto {
		t.Fatalf("Alignment() = %v, want auto", ok.Alignment())
	}
	if _, err := ok.Schedule(chainDAG(t)); err != nil {
		t.Fatalf("auto alignment schedule failed: %v", err)
	}
}

// TestAlignmentModesSchedule runs the same DAG under every mode: all must
// produce valid results; hungarian and auto coincide on small clusters
// (auto's exact cap is far above any paper-scale allocation), and none
// must never keep more bytes local than hungarian.
func TestAlignmentModesSchedule(t *testing.T) {
	d := Random(RandomSpec{N: 40, Width: 0.6, Density: 0.5, Regularity: 0.8, Layered: true, Seed: 5})
	results := map[AlignmentMode]*Result{}
	for _, m := range []AlignmentMode{AlignmentHungarian, AlignmentGreedy, AlignmentNone, AlignmentAuto} {
		s := New(WithStrategy(TimeCost), WithAlignment(m))
		res, err := s.Schedule(d)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		results[m] = res
	}
	if h, a := results[AlignmentHungarian], results[AlignmentAuto]; h.Makespan != a.Makespan ||
		h.LocalBytes != a.LocalBytes {
		t.Errorf("auto and hungarian diverged below the exact cap: makespan %g vs %g, local %g vs %g",
			a.Makespan, h.Makespan, a.LocalBytes, h.LocalBytes)
	}
	if results[AlignmentNone].LocalBytes > results[AlignmentHungarian].LocalBytes+1e-9 {
		t.Errorf("disabled alignment kept more bytes local (%g) than hungarian (%g)",
			results[AlignmentNone].LocalBytes, results[AlignmentHungarian].LocalBytes)
	}
}

// TestProfileDefaults pins the default configuration: the zero
// configuration runs AlignmentAuto, and an explicit WithAlignment replaces
// it in either option order relative to the other options.
func TestProfileDefaults(t *testing.T) {
	s := New()
	if s.Alignment() != AlignmentAuto || s.mapOpts.Align != redist.AlignAuto {
		t.Errorf("default alignment = %v (%v), want auto", s.Alignment(), s.mapOpts.Align)
	}
	for _, opts := range [][]Option{
		{WithAlignment(AlignmentHungarian)},
		{WithAlignment(AlignmentHungarian), WithStrategy(TimeCost)},
		{WithStrategy(TimeCost), WithAlignment(AlignmentHungarian)},
	} {
		o := New(opts...)
		if o.Alignment() != AlignmentHungarian || o.mapOpts.Align != redist.AlignHungarian {
			t.Errorf("opts %d: alignment = %v, want explicit hungarian", len(opts), o.Alignment())
		}
	}
}

// TestProfileFastMakespanBound is the randomized contract test: across
// random and FFT workloads on flat, hierarchical and heterogeneous
// clusters, the default (AlignmentAuto) simulated makespan stays within
// 0.5% of the exact AlignmentHungarian one. Hungarian stays the permanent
// oracle; this bound is what licenses auto as the default.
func TestProfileFastMakespanBound(t *testing.T) {
	clusters := []*Cluster{Grillon(), Grelon(), GrelonHet()}
	var dags []*DAG
	for seed := int64(1); seed <= 4; seed++ {
		dags = append(dags,
			Random(RandomSpec{N: 60, Width: 0.8, Density: 0.5, Regularity: 0.8, Seed: seed, Layered: true}),
			Random(RandomSpec{N: 40, Width: 0.5, Density: 0.3, Regularity: 0.6, Seed: seed}),
		)
	}
	dags = append(dags, FFT(16, 9), Strassen(3))

	for _, cl := range clusters {
		for _, st := range []Strategy{Baseline, Delta, TimeCost} {
			fast := New(WithCluster(cl), WithStrategy(st))
			ref := New(WithCluster(cl), WithStrategy(st), WithAlignment(AlignmentHungarian))
			for i, d := range dags {
				fr, err := fast.Schedule(d)
				if err != nil {
					t.Fatalf("%s/%v dag %d (fast): %v", cl.Name(), st, i, err)
				}
				rr, err := ref.Schedule(d)
				if err != nil {
					t.Fatalf("%s/%v dag %d (reference): %v", cl.Name(), st, i, err)
				}
				delta := 100 * math.Abs(fr.Makespan-rr.Makespan) / rr.Makespan
				if delta > 0.5 {
					t.Errorf("%s/%v dag %d: fast makespan %g vs reference %g (Δ %.3f%%, bound 0.5%%)",
						cl.Name(), st, i, fr.Makespan, rr.Makespan, delta)
				}
			}
		}
	}
}

// FuzzParseAlignment: every parse that succeeds must round-trip through
// String back to the same AlignmentMode.
func FuzzParseAlignment(f *testing.F) {
	for _, s := range []string{"hungarian", "greedy", "none", "auto", "AUTO ", "", "exact"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ParseAlignment(name)
		if err != nil {
			return
		}
		back, err := ParseAlignment(m.String())
		if err != nil || back != m {
			t.Fatalf("ParseAlignment(%q) = %v but String round-trip gives %v, %v", name, m, back, err)
		}
	})
}

// ExampleParseAlignment documents the wire names and the default.
func ExampleParseAlignment() {
	m, _ := ParseAlignment("hungarian")
	fmt.Println(m, New().Alignment())
	// Output: hungarian auto
}
