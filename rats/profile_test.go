package rats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/redist"
)

// TestProfileDefaults pins the profile resolution semantics: the zero
// configuration runs ProfileFast with AlignmentAuto, WithProfile
// (ProfileReference) restores the exact pipeline, and an explicit
// WithAlignment always wins over the profile's alignment while the
// profile keeps the remaining knobs.
func TestProfileDefaults(t *testing.T) {
	s := New()
	if s.Profile() != ProfileFast {
		t.Errorf("default profile = %v, want fast", s.Profile())
	}
	if s.Alignment() != AlignmentAuto {
		t.Errorf("fast-profile alignment = %v, want auto", s.Alignment())
	}
	if s.mapOpts.Align != redist.AlignAuto || s.mapOpts.AlignCap == 0 ||
		s.simOpts.ScratchThreshold == 0 {
		t.Errorf("fast profile left knobs unset: align %v cap %d scratch %d",
			s.mapOpts.Align, s.mapOpts.AlignCap, s.simOpts.ScratchThreshold)
	}

	ref := New(WithProfile(ProfileReference))
	if ref.Profile() != ProfileReference || ref.Alignment() != AlignmentHungarian {
		t.Errorf("reference profile = %v/%v, want reference/hungarian",
			ref.Profile(), ref.Alignment())
	}
	if ref.mapOpts.Align != redist.AlignHungarian || ref.mapOpts.AlignCap != 0 ||
		ref.simOpts.ScratchThreshold != 0 {
		t.Errorf("reference profile is not the exact pipeline: %+v", ref.mapOpts)
	}

	// Explicit alignment beats the fast profile's auto, in either option
	// order; the profile's other knobs stay.
	for _, opts := range [][]Option{
		{WithAlignment(AlignmentGreedy)},
		{WithAlignment(AlignmentGreedy), WithProfile(ProfileFast)},
		{WithProfile(ProfileFast), WithAlignment(AlignmentGreedy)},
	} {
		o := New(opts...)
		if o.Alignment() != AlignmentGreedy || o.mapOpts.Align != redist.AlignGreedy {
			t.Errorf("opts %d: alignment = %v, want explicit greedy", len(opts), o.Alignment())
		}
		if o.simOpts.ScratchThreshold == 0 {
			t.Errorf("explicit alignment dropped the profile's scratch threshold")
		}
	}

	// Out-of-range profiles are configuration errors, surfaced lazily.
	if _, err := New(WithProfile(Profile(99))).Schedule(FFT(4, 1)); err == nil {
		t.Errorf("Profile(99) accepted")
	}
}

// TestParseProfileRoundTrip pins the name set both ways.
func TestParseProfileRoundTrip(t *testing.T) {
	for _, p := range []Profile{ProfileFast, ProfileReference} {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseProfile("exact"); err == nil {
		t.Errorf("ParseProfile accepted %q", "exact")
	}
	if got := Profile(7).String(); got != "Profile(7)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// TestProfileFastMakespanBound is the randomized contract test: across
// random and FFT workloads on flat, hierarchical and heterogeneous
// clusters, the fast profile's simulated makespan stays within 0.5% of
// the reference profile's. The reference stays the permanent oracle; this
// bound is what licenses fast as the default.
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
			ref := New(WithCluster(cl), WithStrategy(st), WithProfile(ProfileReference))
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

// FuzzParseProfile: every parse that succeeds must round-trip through
// String back to the same Profile, and the two canonical names must
// always parse.
func FuzzParseProfile(f *testing.F) {
	for _, s := range []string{"fast", "reference", "FAST", " reference ", "", "exact", "Profile(1)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParseProfile(name)
		if err != nil {
			return
		}
		back, err := ParseProfile(p.String())
		if err != nil || back != p {
			t.Fatalf("ParseProfile(%q) = %v but String round-trip gives %v, %v", name, p, back, err)
		}
	})
}

// FuzzParseAlignment mirrors FuzzParseProfile for the alignment names.
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

// ExampleParseProfile documents the wire names.
func ExampleParseProfile() {
	p, _ := ParseProfile("reference")
	fmt.Println(p, New().Profile())
	// Output: reference fast
}
