package platform

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPaperPresetsTableII(t *testing.T) {
	cases := []struct {
		c     *Cluster
		p     int
		speed float64
	}{
		{Chti(), 20, 4.311},
		{Grillon(), 47, 3.379},
		{Grelon(), 120, 3.185},
	}
	for _, tc := range cases {
		if tc.c.P != tc.p || tc.c.SpeedGFlops != tc.speed {
			t.Errorf("%s: got (%d, %g), want (%d, %g)",
				tc.c.Name, tc.c.P, tc.c.SpeedGFlops, tc.p, tc.speed)
		}
		if err := tc.c.Validate(); err != nil {
			t.Errorf("%s: %v", tc.c.Name, err)
		}
	}
	if len(PaperClusters()) != 3 {
		t.Error("PaperClusters should return the three Table II clusters")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"chti", "grillon", "grelon", "big512", "big1024"} {
		c, err := ByName(name)
		if err != nil || c.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should reject unknown clusters")
	}
}

func TestBigPresets(t *testing.T) {
	cases := []struct {
		c       *Cluster
		p, cabs int
	}{
		{Big512(), 512, 16},
		{Big1024(), 1024, 32},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err != nil {
			t.Errorf("%s: %v", tc.c.Name, err)
		}
		if tc.c.P != tc.p {
			t.Errorf("%s: P = %d, want %d", tc.c.Name, tc.c.P, tc.p)
		}
		if !tc.c.Hierarchical() || tc.c.Cabinets() != tc.cabs {
			t.Errorf("%s: %d cabinets, want %d", tc.c.Name, tc.c.Cabinets(), tc.cabs)
		}
		// Cross-cabinet routes must traverse the backbone uplinks.
		links, _ := tc.c.AppendRoute(nil, 0, tc.c.P-1)
		if len(links) != 4 {
			t.Errorf("%s: cross-cabinet route has %d links, want 4", tc.c.Name, len(links))
		}
		if got := tc.c.LinkCapacity(links[1]); got != 40*GigabitBandwidth {
			t.Errorf("%s: uplink capacity = %g, want 40 Gb/s", tc.c.Name, got)
		}
	}
}

func TestGrelonCabinets(t *testing.T) {
	g := Grelon()
	if !g.Hierarchical() {
		t.Fatal("grelon must be hierarchical")
	}
	if got := g.Cabinets(); got != 5 {
		t.Errorf("cabinets = %d, want 5", got)
	}
	if g.Cabinet(0) != 0 || g.Cabinet(23) != 0 || g.Cabinet(24) != 1 || g.Cabinet(119) != 4 {
		t.Error("cabinet boundaries wrong")
	}
}

func TestFlatRoute(t *testing.T) {
	c := Grillon()
	links, lat := c.AppendRoute(nil, 3, 7)
	if len(links) != 2 {
		t.Fatalf("flat route has %d links, want 2", len(links))
	}
	if links[0] != 6 || links[1] != 15 { // up(3)=6, down(7)=15
		t.Errorf("route links = %v, want [6 15]", links)
	}
	if math.Abs(lat-200e-6) > 1e-12 {
		t.Errorf("latency = %g, want 200µs", lat)
	}
	if rtt := c.RTT(3, 7); math.Abs(rtt-400e-6) > 1e-12 {
		t.Errorf("RTT = %g, want 400µs", rtt)
	}
}

func TestSelfRoute(t *testing.T) {
	c := Chti()
	links, lat := c.AppendRoute(nil, 5, 5)
	if len(links) != 0 || lat != 0 {
		t.Errorf("self route = %v, %g; want empty, 0", links, lat)
	}
}

func TestHierarchicalRoute(t *testing.T) {
	g := Grelon()
	// same cabinet: 2 links
	links, lat := g.AppendRoute(nil, 0, 10)
	if len(links) != 2 || math.Abs(lat-200e-6) > 1e-12 {
		t.Errorf("intra-cabinet: %d links, lat %g", len(links), lat)
	}
	// cross cabinet: 4 links
	links, lat = g.AppendRoute(nil, 0, 30)
	if len(links) != 4 {
		t.Fatalf("cross-cabinet route has %d links, want 4", len(links))
	}
	if math.Abs(lat-400e-6) > 1e-12 {
		t.Errorf("cross-cabinet latency = %g, want 400µs", lat)
	}
	// uplink capacity differs from node links
	if got := g.LinkCapacity(links[1]); got != 10*GigabitBandwidth {
		t.Errorf("uplink capacity = %g, want 10 Gb/s", got)
	}
	if got := g.LinkCapacity(links[0]); got != GigabitBandwidth {
		t.Errorf("node link capacity = %g, want 1 Gb/s", got)
	}
}

func TestEffectiveBandwidthCap(t *testing.T) {
	c := Grillon()
	// RTT flat = 400µs; WMax/RTT with 4MiB = 10.5 GB/s >> β ⇒ β' = β.
	if got := c.EffectiveBandwidth(0, 1); got != GigabitBandwidth {
		t.Errorf("β' = %g, want β = %g", got, GigabitBandwidth)
	}
	// Shrink WMax so the window binds: WMax = 20000 B, RTT = 400µs ⇒ 50 MB/s.
	c.WMax = 20000
	want := 20000 / 400e-6
	if got := c.EffectiveBandwidth(0, 1); math.Abs(got-want) > 1e-6 {
		t.Errorf("β' = %g, want %g", got, want)
	}
}

func TestLinkCapacitiesVector(t *testing.T) {
	g := Grelon()
	caps := g.LinkCapacities()
	if len(caps) != g.NumLinks() {
		t.Fatalf("len(caps) = %d, want %d", len(caps), g.NumLinks())
	}
	if g.NumLinks() != 2*120+2*5 {
		t.Errorf("NumLinks = %d, want 250", g.NumLinks())
	}
	if caps[0] != GigabitBandwidth || caps[len(caps)-1] != 10*GigabitBandwidth {
		t.Error("capacity layout wrong")
	}
}

// Property: routes are symmetric in length and latency, and all link IDs
// are in range.
func TestPropertyRouteSymmetry(t *testing.T) {
	g := Grelon()
	f := func(a, b uint8) bool {
		src := int(a) % g.P
		dst := int(b) % g.P
		l1, lat1 := g.AppendRoute(nil, src, dst)
		l2, lat2 := g.AppendRoute(nil, dst, src)
		if len(l1) != len(l2) || math.Abs(lat1-lat2) > 1e-15 {
			return false
		}
		for _, l := range l1 {
			if l < 0 || l >= g.NumLinks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadClusters(t *testing.T) {
	bad := []*Cluster{
		{Name: "p0", P: 0, SpeedGFlops: 1, LinkBandwidth: 1, WMax: 1},
		{Name: "huge", P: MaxProcs + 1, SpeedGFlops: 1, LinkBandwidth: 1, WMax: 1},
		{Name: "speed", P: 1, SpeedGFlops: 0, LinkBandwidth: 1, WMax: 1},
		{Name: "link", P: 1, SpeedGFlops: 1, LinkBandwidth: 0, WMax: 1},
		{Name: "wmax", P: 1, SpeedGFlops: 1, LinkBandwidth: 1, WMax: 0},
		{Name: "uplink", P: 30, SpeedGFlops: 1, LinkBandwidth: 1, WMax: 1, CabinetSize: 10},
	}
	for _, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrCluster) {
			t.Errorf("cluster %q: Validate = %v, want ErrCluster", c.Name, err)
		}
	}
}

// Property: the closed-form RouteLatency / EffectiveBandwidth fast paths
// agree with walking the materialized route, on flat and hierarchical
// clusters (including a degenerate 1-node-per-cabinet layout).
func TestPropertyRouteFastPaths(t *testing.T) {
	tiny := &Cluster{Name: "tiny-cabs", P: 8, SpeedGFlops: 1,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		CabinetSize:   1,
		UplinkLatency: 3 * GigabitLatency, UplinkBandwidth: GigabitBandwidth / 2,
		WMax: DefaultWMax}
	for _, c := range []*Cluster{Grillon(), Grelon(), Big1024(), tiny} {
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
