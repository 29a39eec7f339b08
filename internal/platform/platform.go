// Package platform models the homogeneous commodity clusters of §II-B of
// the paper.
//
// A cluster has P identical single-core nodes, each with a private
// full-duplex network link (latency λ, bandwidth β) attached to a switch.
// Small clusters hang every node off one switch (chti, grillon); larger
// ones group nodes into cabinets whose switches connect to a top-level
// switch (grelon: five 24-node cabinets), forming a hierarchical network.
//
// Communications follow the bounded multi-port model: a node may exchange
// data with several peers at once, but the bandwidth of its private link is
// shared among the flows (max-min fairness, implemented in internal/flownet).
// As in SimGrid, an empirical per-flow bandwidth β' = min(β, Wmax/RTT)
// accounts for the TCP window, with RTT twice the sum of link latencies
// along the route.
//
// # Heterogeneity
//
// A cluster is uniform by default: one SpeedGFlops for every node, one
// bandwidth/latency figure per link class. Heterogeneous platforms are
// expressed as sparse deviations from that baseline — an optional
// per-node speed vector (NodeSpeeds) and per-link override maps
// (LinkBandwidths, LinkLatencies) keyed by LinkID. Nil vectors/maps mean
// "uniform", and every query (LinkCapacity, RouteLatency,
// EffectiveBandwidth) keeps its closed-form fast path in that case; only
// when overrides are present does it consult the maps. The override
// representation keeps the homogeneous paper presets byte-identical to
// their pre-heterogeneity behaviour while letting custom clusters slow
// down individual nodes, throttle single uplinks, or model asymmetric
// links.
package platform

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// Link identifiers are dense integers so the max-min solver can use slice
// indexing. Every node contributes an up (node→switch) and a down
// (switch→node) directed link; every cabinet contributes an up and a down
// uplink to the top switch.
type LinkID = int

// Cluster describes one homogeneous cluster.
type Cluster struct {
	Name        string
	P           int     // number of nodes (= processors; one core per node)
	SpeedGFlops float64 // per-node compute speed, GFlop/s (HPL-measured)

	LinkLatency   float64 // λ of each private link, seconds
	LinkBandwidth float64 // β of each private link, bytes/second

	// CabinetSize > 0 switches the interconnect to the hierarchical layout:
	// nodes [k·CabinetSize, (k+1)·CabinetSize) share cabinet k, and
	// cross-cabinet routes traverse both cabinet uplinks.
	CabinetSize     int
	UplinkLatency   float64 // λ of a cabinet uplink, seconds
	UplinkBandwidth float64 // β of a cabinet uplink, bytes/second

	// WMax is the maximum TCP window size in bytes, used for the empirical
	// bandwidth β' = min(β, WMax/RTT). The paper does not report SimGrid's
	// setting; the presets use 4 MiB (non-binding on single-switch routes,
	// mildly binding on long hierarchical routes), and it is configurable.
	WMax float64

	// NodeSpeeds, when non-nil, gives node i its own compute speed in
	// GFlop/s and must have exactly P entries, every one positive and
	// finite. Nil means every node runs at SpeedGFlops.
	NodeSpeeds []float64

	// LinkBandwidths and LinkLatencies override the bandwidth (bytes/s)
	// and latency (seconds) of individual directed links, keyed by LinkID
	// (see NodeUpLink/NodeDownLink/CabUpLink/CabDownLink for the layout).
	// Links absent from the maps keep the uniform class figure. Nil maps
	// mean a fully uniform interconnect and keep every route query on its
	// closed-form fast path.
	LinkBandwidths map[LinkID]float64
	LinkLatencies  map[LinkID]float64
}

// Gigabit Ethernet figures used throughout the paper's experiments.
const (
	GigabitBandwidth = 1e9 / 8 // 1 Gb/s in bytes/second
	GigabitLatency   = 100e-6  // 100 µs
	DefaultWMax      = 4 << 20 // 4 MiB TCP window
)

// Chti returns the chti cluster (Lille): 20 nodes at 4.311 GFlop/s behind a
// single gigabit switch (Table II).
func Chti() *Cluster {
	return &Cluster{
		Name: "chti", P: 20, SpeedGFlops: 4.311,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		WMax: DefaultWMax,
	}
}

// Grillon returns the grillon cluster (Nancy): 47 nodes at 3.379 GFlop/s
// behind a single gigabit switch (Table II).
func Grillon() *Cluster {
	return &Cluster{
		Name: "grillon", P: 47, SpeedGFlops: 3.379,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		WMax: DefaultWMax,
	}
}

// Grelon returns the grelon cluster (Nancy): 120 nodes at 3.185 GFlop/s in
// five 24-node cabinets behind a hierarchical switch (Table II). The paper
// does not give the cabinet uplink bandwidth; 10 Gb/s (Grid'5000-era
// backbone) is used and can be overridden.
func Grelon() *Cluster {
	return &Cluster{
		Name: "grelon", P: 120, SpeedGFlops: 3.185,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		CabinetSize:   24,
		UplinkLatency: GigabitLatency, UplinkBandwidth: 10 * GigabitBandwidth,
		WMax: DefaultWMax,
	}
}

// PaperClusters returns the three clusters in the order the paper's tables
// report them: chti / grillon / grelon.
func PaperClusters() []*Cluster {
	return []*Cluster{Chti(), Grillon(), Grelon()}
}

// Big512 returns a synthetic 512-node production-scale cluster: sixteen
// 32-node cabinets of 8 GFlop/s nodes with private gigabit links behind a
// 40 Gb/s backbone. It extrapolates the paper's grelon layout (§II-B) to
// the scale where the time-cost strategy's contention-free estimates are
// most accurate (§IV-D) and where scheduler cost, not simulation fidelity,
// becomes the binding constraint.
func Big512() *Cluster {
	return &Cluster{
		Name: "big512", P: 512, SpeedGFlops: 8,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		CabinetSize:   32,
		UplinkLatency: GigabitLatency, UplinkBandwidth: 40 * GigabitBandwidth,
		WMax: DefaultWMax,
	}
}

// Big1024 returns a synthetic 1024-node cluster: thirty-two 32-node
// cabinets with the same per-node links and 40 Gb/s backbone as Big512.
func Big1024() *Cluster {
	return &Cluster{
		Name: "big1024", P: 1024, SpeedGFlops: 8,
		LinkLatency: GigabitLatency, LinkBandwidth: GigabitBandwidth,
		CabinetSize:   32,
		UplinkLatency: GigabitLatency, UplinkBandwidth: 40 * GigabitBandwidth,
		WMax: DefaultWMax,
	}
}

// GrelonHet returns a heterogeneous variant of grelon: the last two of
// the five cabinets hold half-speed nodes and sit behind gigabit uplinks
// instead of the 10 Gb/s backbone — a 2-tier mix in the shape of a
// cluster extended with an older generation of hardware. It exercises
// both heterogeneity axes (speed vector + link overrides) at paper scale.
func GrelonHet() *Cluster {
	c := Grelon()
	c.Name = "grelon-het"
	speeds := make([]float64, c.P)
	for i := range speeds {
		speeds[i] = c.SpeedGFlops
		if c.Cabinet(i) >= 3 {
			speeds[i] = c.SpeedGFlops / 2
		}
	}
	c.NodeSpeeds = speeds
	c.LinkBandwidths = make(map[LinkID]float64, 4)
	for cab := 3; cab < c.Cabinets(); cab++ {
		c.LinkBandwidths[c.CabUpLink(cab)] = GigabitBandwidth
		c.LinkBandwidths[c.CabDownLink(cab)] = GigabitBandwidth
	}
	return c
}

// Big512Het returns a heterogeneous variant of big512: the second half of
// the sixteen cabinets holds half-speed (4 GFlop/s) nodes, and the last
// four cabinets reach the backbone over 10 Gb/s uplinks instead of
// 40 Gb/s — production-scale 2-tier heterogeneity.
func Big512Het() *Cluster {
	c := Big512()
	c.Name = "big512-het"
	speeds := make([]float64, c.P)
	for i := range speeds {
		speeds[i] = c.SpeedGFlops
		if c.Cabinet(i) >= 8 {
			speeds[i] = c.SpeedGFlops / 2
		}
	}
	c.NodeSpeeds = speeds
	c.LinkBandwidths = make(map[LinkID]float64, 8)
	for cab := 12; cab < c.Cabinets(); cab++ {
		c.LinkBandwidths[c.CabUpLink(cab)] = 10 * GigabitBandwidth
		c.LinkBandwidths[c.CabDownLink(cab)] = 10 * GigabitBandwidth
	}
	return c
}

// presets maps every preset name to its constructor, in the order Names
// reports them.
var presets = []struct {
	name string
	make func() *Cluster
}{
	{"chti", Chti},
	{"grillon", Grillon},
	{"grelon", Grelon},
	{"grelon-het", GrelonHet},
	{"big512", Big512},
	{"big512-het", Big512Het},
	{"big1024", Big1024},
}

// Names returns the preset cluster names ByName accepts, in display
// order. CLI flag help and error messages should use this instead of
// hard-coding the list.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// ByName returns the preset cluster with the given name.
func ByName(name string) (*Cluster, error) {
	for _, p := range presets {
		if p.name == name {
			return p.make(), nil
		}
	}
	return nil, fmt.Errorf("platform: unknown cluster %q (valid presets: %s)", name, strings.Join(Names(), ", "))
}

// Hierarchical reports whether the cluster uses the cabinet topology.
func (c *Cluster) Hierarchical() bool { return c.CabinetSize > 0 }

// Cabinets returns the number of cabinets (1 for flat clusters).
func (c *Cluster) Cabinets() int {
	if !c.Hierarchical() {
		return 1
	}
	return (c.P + c.CabinetSize - 1) / c.CabinetSize
}

// Cabinet returns the cabinet index of a node (0 for flat clusters).
func (c *Cluster) Cabinet(node int) int {
	if !c.Hierarchical() {
		return 0
	}
	return node / c.CabinetSize
}

// NumLinks returns the total number of directed links (node up/down pairs
// plus cabinet uplink pairs).
func (c *Cluster) NumLinks() int {
	n := 2 * c.P
	if c.Hierarchical() {
		n += 2 * c.Cabinets()
	}
	return n
}

// Link ID layout: node up/down pairs first, then cabinet uplink pairs.
// Exported so override maps can be keyed without duplicating the layout.
func (c *Cluster) NodeUpLink(node int) LinkID   { return 2 * node }
func (c *Cluster) NodeDownLink(node int) LinkID { return 2*node + 1 }
func (c *Cluster) CabUpLink(cab int) LinkID     { return 2*c.P + 2*cab }
func (c *Cluster) CabDownLink(cab int) LinkID   { return 2*c.P + 2*cab + 1 }

func (c *Cluster) nodeUp(node int) LinkID   { return c.NodeUpLink(node) }
func (c *Cluster) nodeDown(node int) LinkID { return c.NodeDownLink(node) }
func (c *Cluster) cabUp(cab int) LinkID     { return c.CabUpLink(cab) }
func (c *Cluster) cabDown(cab int) LinkID   { return c.CabDownLink(cab) }

// HeteroSpeeds reports whether the cluster carries a per-node speed
// vector (even an all-equal one — presence, not spread, selects the
// vector-aware cost paths).
func (c *Cluster) HeteroSpeeds() bool { return c.NodeSpeeds != nil }

// HeteroLinks reports whether any link overrides are present.
func (c *Cluster) HeteroLinks() bool {
	return len(c.LinkBandwidths) > 0 || len(c.LinkLatencies) > 0
}

// Hetero reports whether the cluster deviates from uniformity on either
// axis.
func (c *Cluster) Hetero() bool { return c.HeteroSpeeds() || c.HeteroLinks() }

// NodeSpeed returns the compute speed of one node in GFlop/s.
func (c *Cluster) NodeSpeed(node int) float64 {
	if c.NodeSpeeds == nil {
		return c.SpeedGFlops
	}
	return c.NodeSpeeds[node]
}

// MinSpeedOf returns the speed of the slowest node in procs — the speed a
// data-parallel task runs at when spread over that set, since its
// synchronous steps advance at the pace of the slowest member.
func (c *Cluster) MinSpeedOf(procs []int) float64 {
	if c.NodeSpeeds == nil || len(procs) == 0 {
		return c.PlanSpeedGFlops()
	}
	s := c.NodeSpeeds[procs[0]]
	for _, p := range procs[1:] {
		if sp := c.NodeSpeeds[p]; sp < s {
			s = sp
		}
	}
	return s
}

// PlanSpeedGFlops returns the speed the planning phases (allocation,
// priority computation) cost tasks at: the cluster-wide minimum node
// speed. Planning at the conservative bound keeps estimates feasible on
// any processor set the mapper may pick; on a uniform cluster it is
// exactly SpeedGFlops, so homogeneous schedules are untouched.
func (c *Cluster) PlanSpeedGFlops() float64 {
	if c.NodeSpeeds == nil {
		return c.SpeedGFlops
	}
	s := c.NodeSpeeds[0]
	for _, sp := range c.NodeSpeeds[1:] {
		if sp < s {
			s = sp
		}
	}
	return s
}

// LinkCapacity returns the bandwidth in bytes/second of a directed link.
func (c *Cluster) LinkCapacity(l LinkID) float64 {
	if bw, ok := c.LinkBandwidths[l]; ok {
		return bw
	}
	if l < 2*c.P {
		return c.LinkBandwidth
	}
	return c.UplinkBandwidth
}

// LinkDelay returns the latency in seconds of a directed link, consulting
// the override map — the latency counterpart of LinkCapacity, exported so
// estimator-side caches can be built per link id without duplicating the
// override lookup.
func (c *Cluster) LinkDelay(l LinkID) float64 { return c.linkLatency(l) }

// linkLatency returns the latency of a directed link, consulting the
// override map. Only hetero paths call it; uniform routes stay on the
// closed forms.
func (c *Cluster) linkLatency(l LinkID) float64 {
	if lat, ok := c.LinkLatencies[l]; ok {
		return lat
	}
	if l < 2*c.P {
		return c.LinkLatency
	}
	return c.UplinkLatency
}

// LinkCapacities returns the capacity vector indexed by LinkID, ready for
// the max-min solver.
func (c *Cluster) LinkCapacities() []float64 {
	caps := make([]float64, c.NumLinks())
	for l := range caps {
		caps[l] = c.LinkCapacity(l)
	}
	return caps
}

// AppendRoute appends the directed links traversed by a flow from node
// src to node dst to buf and returns the extended slice with the one-way
// latency of the route (sum of link latencies). A self-route (src == dst)
// is empty with zero latency: intra-node copies are free, which implements
// the paper's "no redistribution cost on the same processor" assumption at
// the flow level. Routes have at most four links; replay loops that start
// thousands of flows keep them in an arena (pass nil to allocate).
func (c *Cluster) AppendRoute(buf []LinkID, src, dst int) (links []LinkID, latency float64) {
	if src == dst {
		return buf, 0
	}
	lat := c.RouteLatency(src, dst)
	if !c.Hierarchical() || c.Cabinet(src) == c.Cabinet(dst) {
		return append(buf, c.nodeUp(src), c.nodeDown(dst)), lat
	}
	return append(buf,
		c.nodeUp(src),
		c.cabUp(c.Cabinet(src)),
		c.cabDown(c.Cabinet(dst)),
		c.nodeDown(dst),
	), lat
}

// RouteLatency returns the one-way latency of the route from src to dst
// without materializing the link list — the allocation-free companion of
// AppendRoute for hot paths that only need the latency.
func (c *Cluster) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	if len(c.LinkLatencies) > 0 {
		// Summed pairwise — (up+down) + (cabUp+cabDown) — so an all-equal
		// override map reproduces the closed forms below bit-exactly
		// (x+x ≡ 2*x in IEEE arithmetic).
		lat := c.linkLatency(c.NodeUpLink(src)) + c.linkLatency(c.NodeDownLink(dst))
		if c.Hierarchical() && c.Cabinet(src) != c.Cabinet(dst) {
			lat += c.linkLatency(c.CabUpLink(c.Cabinet(src))) + c.linkLatency(c.CabDownLink(c.Cabinet(dst)))
		}
		return lat
	}
	if !c.Hierarchical() || c.Cabinet(src) == c.Cabinet(dst) {
		return 2 * c.LinkLatency
	}
	return 2*c.LinkLatency + 2*c.UplinkLatency
}

// RTT returns the round-trip time between two nodes: twice the sum of the
// latencies of the links on the (symmetric) route, as in SimGrid.
func (c *Cluster) RTT(src, dst int) float64 {
	return 2 * c.RouteLatency(src, dst)
}

// EffectiveBandwidth returns the empirical per-flow bandwidth
// β' = min(β, WMax/RTT) between two nodes, where β is the narrowest link on
// the route. It is used both as the per-flow rate cap in the simulator and
// by the schedulers' contention-free redistribution estimates.
func (c *Cluster) EffectiveBandwidth(src, dst int) float64 {
	if src == dst {
		return 0 // self-flow: instantaneous, no bandwidth meaning
	}
	var beta float64
	if len(c.LinkBandwidths) > 0 {
		// Narrowest link on the route. For an all-equal override map the
		// running min visits the same values the closed form compares, so
		// the result is bit-identical to the uniform path.
		beta = c.LinkCapacity(c.NodeUpLink(src))
		if bw := c.LinkCapacity(c.NodeDownLink(dst)); bw < beta {
			beta = bw
		}
		if c.Hierarchical() && c.Cabinet(src) != c.Cabinet(dst) {
			if bw := c.LinkCapacity(c.CabUpLink(c.Cabinet(src))); bw < beta {
				beta = bw
			}
			if bw := c.LinkCapacity(c.CabDownLink(c.Cabinet(dst))); bw < beta {
				beta = bw
			}
		}
	} else {
		beta = c.LinkBandwidth
		if c.Hierarchical() && c.Cabinet(src) != c.Cabinet(dst) && c.UplinkBandwidth < beta {
			beta = c.UplinkBandwidth
		}
	}
	if rtt := c.RTT(src, dst); rtt > 0 {
		if cap := c.WMax / rtt; cap < beta {
			return cap
		}
	}
	return beta
}

// MaxProcs is the largest processor count Validate accepts. The mapper
// sizes per-processor scratch to P up front, so an unbounded P lets a
// few-byte description demand gigabytes; the bound is also the id range of
// redist's indexed alignment path.
const MaxProcs = 1 << 20

// ErrCluster wraps every error Validate returns: the description is not a
// cluster the model can simulate.
var ErrCluster = errors.New("platform: invalid cluster")

// invalid returns an ErrCluster-wrapped error naming the cluster.
func (c *Cluster) invalid(format string, args ...any) error {
	return fmt.Errorf("%w %s: %s", ErrCluster, c.Name, fmt.Sprintf(format, args...))
}

// positive reports whether x is a usable rate: positive and finite (NaN
// fails the comparison).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegative reports whether x is a usable latency: non-negative and
// finite (NaN fails the comparison).
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks the cluster description for consistency: P is in
// [1, MaxProcs], every scalar and per-node or per-link override is finite,
// rates are positive and latencies non-negative. Every error it returns
// wraps ErrCluster.
func (c *Cluster) Validate() error {
	switch {
	case c.P <= 0:
		return c.invalid("P = %d, must be positive", c.P)
	case c.P > MaxProcs:
		return c.invalid("P = %d, exceeds the limit of %d", c.P, MaxProcs)
	case !positive(c.SpeedGFlops):
		return c.invalid("speed = %g GFlop/s, must be positive and finite", c.SpeedGFlops)
	case !positive(c.LinkBandwidth) || !nonNegative(c.LinkLatency):
		return c.invalid("invalid private link (β=%g, λ=%g)", c.LinkBandwidth, c.LinkLatency)
	case c.Hierarchical() && (!positive(c.UplinkBandwidth) || !nonNegative(c.UplinkLatency)):
		return c.invalid("invalid cabinet uplink (β=%g, λ=%g)", c.UplinkBandwidth, c.UplinkLatency)
	case !positive(c.WMax):
		return c.invalid("WMax = %g, must be positive and finite", c.WMax)
	}
	if c.NodeSpeeds != nil {
		if len(c.NodeSpeeds) != c.P {
			return c.invalid("speed vector has %d entries, want P = %d", len(c.NodeSpeeds), c.P)
		}
		for i, s := range c.NodeSpeeds {
			if !positive(s) {
				return c.invalid("node %d speed = %g GFlop/s, must be positive and finite", i, s)
			}
		}
	}
	for l, bw := range c.LinkBandwidths {
		if l < 0 || l >= c.NumLinks() {
			return c.invalid("bandwidth override for link %d outside [0, %d)", l, c.NumLinks())
		}
		if !positive(bw) {
			return c.invalid("bandwidth override for link %d = %g B/s, must be positive and finite", l, bw)
		}
	}
	for l, lat := range c.LinkLatencies {
		if l < 0 || l >= c.NumLinks() {
			return c.invalid("latency override for link %d outside [0, %d)", l, c.NumLinks())
		}
		if !nonNegative(lat) {
			return c.invalid("latency override for link %d = %g s, must be non-negative and finite", l, lat)
		}
	}
	return nil
}

// Equal reports whether two cluster descriptions are structurally
// identical: same scalar parameters, same speed vector, same link
// overrides. Identical descriptions produce identical estimates and so
// identical schedules, which is what context pooling keys on. (Cluster
// stopped being ==-comparable when it gained vector fields.)
func Equal(a, b *Cluster) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Name == b.Name && a.P == b.P && a.SpeedGFlops == b.SpeedGFlops &&
		a.LinkLatency == b.LinkLatency && a.LinkBandwidth == b.LinkBandwidth &&
		a.CabinetSize == b.CabinetSize &&
		a.UplinkLatency == b.UplinkLatency && a.UplinkBandwidth == b.UplinkBandwidth &&
		a.WMax == b.WMax &&
		slices.Equal(a.NodeSpeeds, b.NodeSpeeds) &&
		maps.Equal(a.LinkBandwidths, b.LinkBandwidths) &&
		maps.Equal(a.LinkLatencies, b.LinkLatencies)
}
