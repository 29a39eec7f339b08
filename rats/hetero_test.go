package rats

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestHeteroClusterPresets(t *testing.T) {
	for _, tc := range []struct {
		c     *Cluster
		name  string
		procs int
	}{
		{GrelonHet(), "grelon-het", 120},
		{Big512Het(), "big512-het", 512},
	} {
		if tc.c.Name() != tc.name || tc.c.Procs() != tc.procs {
			t.Errorf("preset %s: got (%s, %d)", tc.name, tc.c.Name(), tc.c.Procs())
		}
		if !tc.c.Hetero() {
			t.Errorf("%s: Hetero() = false", tc.name)
		}
		byName, err := ClusterByName(tc.name)
		if err != nil || byName.Procs() != tc.procs {
			t.Errorf("ClusterByName(%s) = %v, %v", tc.name, byName, err)
		}
		// 2-tier speed mix surfaces through the accessor.
		if tc.c.NodeSpeed(0) != tc.c.SpeedGFlops() {
			t.Errorf("%s: node 0 not at full speed", tc.name)
		}
		if tc.c.NodeSpeed(tc.procs-1) != tc.c.SpeedGFlops()/2 {
			t.Errorf("%s: last node not at half speed", tc.name)
		}
	}
	names := strings.Join(ClusterNames(), ",")
	for _, want := range []string{"grelon-het", "big512-het"} {
		if !strings.Contains(names, want) {
			t.Errorf("ClusterNames() = %s, missing %s", names, want)
		}
	}
	if Grillon().Hetero() {
		t.Error("grillon must be uniform")
	}
}

// TestNewClusterRejectsNonFiniteScalars: NaN and ±Inf in any scalar of a
// (hierarchical) spec is a typed error, never an accepted cluster — a NaN
// speed once passed the `x <= 0` checks and hung the replay.
func TestNewClusterRejectsNonFiniteScalars(t *testing.T) {
	fields := []struct {
		name string
		set  func(*ClusterSpec, float64)
	}{
		{"speed", func(s *ClusterSpec, v float64) { s.SpeedGFlops = v }},
		{"link bandwidth", func(s *ClusterSpec, v float64) { s.LinkBandwidth = v }},
		{"link latency", func(s *ClusterSpec, v float64) { s.LinkLatency = v }},
		{"uplink bandwidth", func(s *ClusterSpec, v float64) { s.UplinkBandwidth = v }},
		{"uplink latency", func(s *ClusterSpec, v float64) { s.UplinkLatency = v }},
		{"wmax", func(s *ClusterSpec, v float64) { s.WMax = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec := ClusterSpec{Procs: 8, SpeedGFlops: 2, CabinetSize: 4}
			f.set(&spec, v)
			if c, err := NewCluster(spec); !errors.Is(err, platform.ErrCluster) {
				t.Errorf("%s = %g: NewCluster = (%v, %v), want platform.ErrCluster", f.name, v, c, err)
			}
		}
	}
}

// TestNewClusterBoundsProcs: a processor count past platform.MaxProcs is a
// typed error — the mapper sizes per-processor scratch to it, so
// procs = 2³⁰ used to demand an 8 GiB block and die out of memory — while
// a cluster at the bound still schedules.
func TestNewClusterBoundsProcs(t *testing.T) {
	for _, p := range []int{platform.MaxProcs + 1, 1 << 30} {
		if c, err := NewCluster(ClusterSpec{Procs: p, SpeedGFlops: 2}); !errors.Is(err, platform.ErrCluster) {
			t.Errorf("procs = %d: NewCluster = (%v, %v), want platform.ErrCluster", p, c, err)
		}
	}
	c, err := NewCluster(ClusterSpec{Procs: platform.MaxProcs, SpeedGFlops: 2})
	if err != nil {
		t.Fatalf("procs = MaxProcs: %v", err)
	}
	d := NewDAG()
	d.Task("solo", TaskSpec{Elements: 1e6, OpsFactor: 64, Alpha: 0.1})
	if _, err := New(WithCluster(c)).Schedule(d); err != nil {
		t.Fatalf("one task on MaxProcs processors: %v", err)
	}
}

func TestNewClusterVectorValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	speeds := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	bad := []struct {
		name string
		spec ClusterSpec
	}{
		{"speed vector too short", ClusterSpec{Procs: 8, SpeedGFlops: 2, NodeSpeeds: speeds(5, 2)}},
		{"speed vector too long", ClusterSpec{Procs: 8, SpeedGFlops: 2, NodeSpeeds: speeds(9, 2)}},
		{"zero speed entry", ClusterSpec{Procs: 3, SpeedGFlops: 2, NodeSpeeds: []float64{2, 0, 2}}},
		{"negative speed entry", ClusterSpec{Procs: 3, SpeedGFlops: 2, NodeSpeeds: []float64{2, -2, 2}}},
		{"NaN speed entry", ClusterSpec{Procs: 3, SpeedGFlops: 2, NodeSpeeds: []float64{2, nan, 2}}},
		{"Inf speed entry", ClusterSpec{Procs: 3, SpeedGFlops: 2, NodeSpeeds: []float64{2, inf, 2}}},
		{"node bandwidths wrong length", ClusterSpec{Procs: 4, SpeedGFlops: 2, NodeBandwidths: speeds(3, 1e9)}},
		{"zero node bandwidth", ClusterSpec{Procs: 2, SpeedGFlops: 2, NodeBandwidths: []float64{1e9, 0}}},
		{"NaN node bandwidth", ClusterSpec{Procs: 2, SpeedGFlops: 2, NodeBandwidths: []float64{nan, 1e9}}},
		{"Inf node bandwidth", ClusterSpec{Procs: 2, SpeedGFlops: 2, NodeBandwidths: []float64{inf, 1e9}}},
		{"uplinks on flat cluster", ClusterSpec{Procs: 8, SpeedGFlops: 2, UplinkBandwidths: []float64{1e9}}},
		{"uplinks wrong count", ClusterSpec{Procs: 8, SpeedGFlops: 2, CabinetSize: 4, UplinkBandwidths: []float64{1e9}}},
		{"negative uplink bandwidth", ClusterSpec{Procs: 8, SpeedGFlops: 2, CabinetSize: 4, UplinkBandwidths: []float64{1e9, -1e9}}},
	}
	for _, tc := range bad {
		if _, err := NewCluster(tc.spec); !errors.Is(err, platform.ErrCluster) {
			t.Errorf("%s: NewCluster = %v, want platform.ErrCluster", tc.name, err)
		}
	}

	// A well-formed heterogeneous spec is accepted and surfaces its vectors.
	c, err := NewCluster(ClusterSpec{
		Procs: 8, SpeedGFlops: 4, CabinetSize: 4,
		NodeSpeeds:       []float64{4, 4, 4, 4, 2, 2, 2, 2},
		NodeBandwidths:   speeds(8, 1e9),
		UplinkBandwidths: []float64{1e10, 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Hetero() || c.NodeSpeed(0) != 4 || c.NodeSpeed(7) != 2 {
		t.Errorf("hetero spec not honoured: hetero=%v speeds=(%g, %g)",
			c.Hetero(), c.NodeSpeed(0), c.NodeSpeed(7))
	}

	// A vector-only spec may omit the scalar speed; the baseline is seeded
	// from the vector.
	c, err = NewCluster(ClusterSpec{Procs: 3, NodeSpeeds: []float64{5, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if c.SpeedGFlops() != 5 || c.NodeSpeed(1) != 3 {
		t.Errorf("vector-only spec: scalar = %g, node 1 = %g", c.SpeedGFlops(), c.NodeSpeed(1))
	}
}

// TestHeteroSchedule drives the full facade on a heterogeneous preset:
// every strategy must produce a valid result, and the simulated makespan
// must exceed what the same DAG achieves on the uniform parent cluster —
// half the nodes are half as fast, so the machine cannot be faster.
func TestHeteroSchedule(t *testing.T) {
	d := FFT(8, 7)
	var uniform float64
	for _, tc := range []struct {
		cl *Cluster
	}{{Grelon()}, {GrelonHet()}} {
		for _, st := range []Strategy{Baseline, Delta, TimeCost} {
			res, err := New(WithCluster(tc.cl), WithStrategy(st)).Schedule(d)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.cl.Name(), st, err)
			}
			if res.Makespan <= 0 || math.IsNaN(res.Makespan) {
				t.Fatalf("%s/%v: makespan = %g", tc.cl.Name(), st, res.Makespan)
			}
			if st == Baseline {
				if tc.cl.Hetero() {
					if res.Makespan < uniform {
						t.Errorf("heterogeneous makespan %g beats uniform %g — slow tier ignored",
							res.Makespan, uniform)
					}
				} else {
					uniform = res.Makespan
				}
			}
		}
	}
}
