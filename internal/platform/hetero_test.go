package platform

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNamesListsAllPresets(t *testing.T) {
	want := []string{"chti", "grillon", "grelon", "grelon-het", "big512", "big512-het", "big1024"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range got {
		c, err := ByName(name)
		if err != nil || c.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameErrorListsPresets(t *testing.T) {
	_, err := ByName("gre1on")
	if err == nil {
		t.Fatal("ByName should reject unknown clusters")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention preset %q", err, name)
		}
	}
}

func TestHeteroPresets(t *testing.T) {
	cases := []struct {
		c         *Cluster
		slowCab   int     // first slow cabinet
		throttCab int     // first throttled-uplink cabinet
		slowBW    float64 // throttled uplink bandwidth
	}{
		{GrelonHet(), 3, 3, GigabitBandwidth},
		{Big512Het(), 8, 12, 10 * GigabitBandwidth},
	}
	for _, tc := range cases {
		c := tc.c
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !c.HeteroSpeeds() || !c.HeteroLinks() || !c.Hetero() {
			t.Errorf("%s: hetero flags = (%v, %v, %v), want all true",
				c.Name, c.HeteroSpeeds(), c.HeteroLinks(), c.Hetero())
		}
		// 2-tier speed mix: full speed before the slow cabinets, half after.
		if got := c.NodeSpeed(0); got != c.SpeedGFlops {
			t.Errorf("%s: node 0 speed = %g, want %g", c.Name, got, c.SpeedGFlops)
		}
		if got := c.NodeSpeed(c.P - 1); got != c.SpeedGFlops/2 {
			t.Errorf("%s: node %d speed = %g, want %g", c.Name, c.P-1, got, c.SpeedGFlops/2)
		}
		firstSlow := tc.slowCab * c.CabinetSize
		if c.NodeSpeed(firstSlow-1) != c.SpeedGFlops || c.NodeSpeed(firstSlow) != c.SpeedGFlops/2 {
			t.Errorf("%s: speed tier boundary not at node %d", c.Name, firstSlow)
		}
		// Planning speed is the conservative (slow-tier) bound.
		if got := c.PlanSpeedGFlops(); got != c.SpeedGFlops/2 {
			t.Errorf("%s: PlanSpeedGFlops = %g, want %g", c.Name, got, c.SpeedGFlops/2)
		}
		// Throttled uplinks on the listed cabinets, class figure elsewhere.
		if got := c.LinkCapacity(c.CabUpLink(0)); got != c.UplinkBandwidth {
			t.Errorf("%s: cabinet 0 uplink = %g, want %g", c.Name, got, c.UplinkBandwidth)
		}
		for cab := tc.throttCab; cab < c.Cabinets(); cab++ {
			if got := c.LinkCapacity(c.CabUpLink(cab)); got != tc.slowBW {
				t.Errorf("%s: cabinet %d uplink = %g, want %g", c.Name, cab, got, tc.slowBW)
			}
			if got := c.LinkCapacity(c.CabDownLink(cab)); got != tc.slowBW {
				t.Errorf("%s: cabinet %d downlink = %g, want %g", c.Name, cab, got, tc.slowBW)
			}
		}
	}
}

func TestHeteroPresetEffectiveBandwidth(t *testing.T) {
	c := GrelonHet()
	// Route into a throttled cabinet narrows to the 1 Gb/s uplink — same
	// figure as the node links here, so the route is still gigabit-bound…
	if got := c.EffectiveBandwidth(0, c.P-1); got != GigabitBandwidth {
		t.Errorf("into throttled cabinet: β' = %g, want %g", got, GigabitBandwidth)
	}
	// …while a fast-tier cross-cabinet route keeps its node-link bound.
	if got := c.EffectiveBandwidth(0, 2*c.CabinetSize); got != GigabitBandwidth {
		t.Errorf("fast-tier cross-cabinet: β' = %g, want %g", got, GigabitBandwidth)
	}
	// Widen the node links so the throttled uplink becomes the bottleneck.
	for i := 0; i < c.P; i++ {
		c.LinkBandwidths[c.NodeUpLink(i)] = 10 * GigabitBandwidth
		c.LinkBandwidths[c.NodeDownLink(i)] = 10 * GigabitBandwidth
	}
	if got := c.EffectiveBandwidth(0, c.P-1); got != GigabitBandwidth {
		t.Errorf("throttled uplink should bind: β' = %g, want %g", got, GigabitBandwidth)
	}
	if got := c.EffectiveBandwidth(0, 2*c.CabinetSize); got != 10*GigabitBandwidth {
		t.Errorf("fast-tier route should widen: β' = %g, want %g", got, 10*GigabitBandwidth)
	}
}

func TestMinSpeedOf(t *testing.T) {
	uni := Grelon()
	if got := uni.MinSpeedOf([]int{0, 50, 119}); got != uni.SpeedGFlops {
		t.Errorf("uniform MinSpeedOf = %g, want %g", got, uni.SpeedGFlops)
	}
	het := GrelonHet()
	if got := het.MinSpeedOf(nil); got != het.PlanSpeedGFlops() {
		t.Errorf("empty set MinSpeedOf = %g, want planning speed %g", got, het.PlanSpeedGFlops())
	}
	if got := het.MinSpeedOf([]int{0, 1, 2}); got != het.SpeedGFlops {
		t.Errorf("fast-tier set MinSpeedOf = %g, want %g", got, het.SpeedGFlops)
	}
	if got := het.MinSpeedOf([]int{0, het.P - 1}); got != het.SpeedGFlops/2 {
		t.Errorf("mixed set MinSpeedOf = %g, want slowest member %g", got, het.SpeedGFlops/2)
	}
}

func TestRouteLatencyOverrides(t *testing.T) {
	c := Grelon()
	c.LinkLatencies = map[LinkID]float64{
		c.NodeUpLink(0):   5 * GigabitLatency,
		c.CabDownLink(4):  7 * GigabitLatency,
		c.NodeDownLink(1): 0, // a zero-latency override is legal
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-cabinet from the overridden node: 5λ + λ.
	if got, want := c.RouteLatency(0, 2), 6*GigabitLatency; math.Abs(got-want) > 1e-15 {
		t.Errorf("intra route latency = %g, want %g", got, want)
	}
	// Cross-cabinet into cabinet 4: 5λ (up) + λ (cabUp) + 7λ (cabDown) + λ (down).
	if got, want := c.RouteLatency(0, c.P-1), 14*GigabitLatency; math.Abs(got-want) > 1e-15 {
		t.Errorf("cross route latency = %g, want %g", got, want)
	}
	// Zero-latency down link: λ (up) + 0.
	if got, want := c.RouteLatency(2, 1), GigabitLatency; math.Abs(got-want) > 1e-15 {
		t.Errorf("zero-override route latency = %g, want %g", got, want)
	}
}

func TestValidateRejectsBadHetero(t *testing.T) {
	base := func() *Cluster { return Grelon() }
	cases := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"short speed vector", func(c *Cluster) { c.NodeSpeeds = []float64{1, 2, 3} }},
		{"long speed vector", func(c *Cluster) { c.NodeSpeeds = make([]float64, c.P+1) }},
		{"zero speed", func(c *Cluster) {
			c.NodeSpeeds = uniformSpeeds(c)
			c.NodeSpeeds[5] = 0
		}},
		{"negative speed", func(c *Cluster) {
			c.NodeSpeeds = uniformSpeeds(c)
			c.NodeSpeeds[0] = -1
		}},
		{"NaN speed", func(c *Cluster) {
			c.NodeSpeeds = uniformSpeeds(c)
			c.NodeSpeeds[c.P-1] = math.NaN()
		}},
		{"Inf speed", func(c *Cluster) {
			c.NodeSpeeds = uniformSpeeds(c)
			c.NodeSpeeds[1] = math.Inf(1)
		}},
		{"bandwidth key out of range", func(c *Cluster) {
			c.LinkBandwidths = map[LinkID]float64{c.NumLinks(): GigabitBandwidth}
		}},
		{"negative bandwidth key", func(c *Cluster) {
			c.LinkBandwidths = map[LinkID]float64{-1: GigabitBandwidth}
		}},
		{"zero bandwidth", func(c *Cluster) {
			c.LinkBandwidths = map[LinkID]float64{0: 0}
		}},
		{"NaN bandwidth", func(c *Cluster) {
			c.LinkBandwidths = map[LinkID]float64{0: math.NaN()}
		}},
		{"Inf bandwidth", func(c *Cluster) {
			c.LinkBandwidths = map[LinkID]float64{0: math.Inf(1)}
		}},
		{"latency key out of range", func(c *Cluster) {
			c.LinkLatencies = map[LinkID]float64{c.NumLinks() + 3: GigabitLatency}
		}},
		{"negative latency", func(c *Cluster) {
			c.LinkLatencies = map[LinkID]float64{0: -1e-6}
		}},
		{"NaN latency", func(c *Cluster) {
			c.LinkLatencies = map[LinkID]float64{0: math.NaN()}
		}},
		{"Inf latency", func(c *Cluster) {
			c.LinkLatencies = map[LinkID]float64{0: math.Inf(1)}
		}},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func uniformSpeeds(c *Cluster) []float64 {
	s := make([]float64, c.P)
	for i := range s {
		s[i] = c.SpeedGFlops
	}
	return s
}

func TestEqual(t *testing.T) {
	if !Equal(GrelonHet(), GrelonHet()) {
		t.Error("two GrelonHet() instances must compare equal")
	}
	if Equal(Grelon(), GrelonHet()) {
		t.Error("grelon and grelon-het must differ")
	}
	a, b := GrelonHet(), GrelonHet()
	b.NodeSpeeds[0] *= 2
	if Equal(a, b) {
		t.Error("differing speed vectors must not compare equal")
	}
	c, d := GrelonHet(), GrelonHet()
	d.LinkBandwidths[d.CabUpLink(0)] = GigabitBandwidth
	if Equal(c, d) {
		t.Error("differing link overrides must not compare equal")
	}
	if Equal(Grelon(), nil) || !Equal((*Cluster)(nil), nil) {
		t.Error("nil handling wrong")
	}
}

// Property: on heterogeneous clusters too, the RouteLatency /
// EffectiveBandwidth shortcuts agree with walking the materialized route —
// the same invariant TestPropertyRouteFastPaths pins for uniform presets.
func TestPropertyHeteroRouteFastPaths(t *testing.T) {
	for _, c := range []*Cluster{GrelonHet(), Big512Het()} {
		f := func(a, b uint16) bool {
			src := int(a) % c.P
			dst := int(b) % c.P
			links, lat := c.AppendRoute(nil, src, dst)
			if c.RouteLatency(src, dst) != lat {
				return false
			}
			if len(links) == 0 {
				return c.EffectiveBandwidth(src, dst) == 0
			}
			beta := c.LinkCapacity(links[0])
			for _, l := range links[1:] {
				if bw := c.LinkCapacity(l); bw < beta {
					beta = bw
				}
			}
			if rtt := 2 * lat; rtt > 0 {
				if cap := c.WMax / rtt; cap < beta {
					beta = cap
				}
			}
			return c.EffectiveBandwidth(src, dst) == beta
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
