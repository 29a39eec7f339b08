package rats

import (
	"fmt"

	"repro/internal/platform"
)

// Cluster is an immutable description of a homogeneous commodity cluster
// (§II-B of the paper): P identical single-core nodes with private
// full-duplex gigabit links, optionally grouped into cabinets behind a
// hierarchical switch. Clusters are safe for concurrent use.
type Cluster struct {
	pc *platform.Cluster
}

// Chti returns the paper's chti cluster (Lille): 20 nodes at 4.311
// GFlop/s behind a single gigabit switch.
func Chti() *Cluster { return &Cluster{pc: platform.Chti()} }

// Grillon returns the paper's grillon cluster (Nancy): 47 nodes at 3.379
// GFlop/s behind a single gigabit switch.
func Grillon() *Cluster { return &Cluster{pc: platform.Grillon()} }

// Grelon returns the paper's grelon cluster (Nancy): 120 nodes at 3.185
// GFlop/s in five 24-node cabinets behind a hierarchical switch.
func Grelon() *Cluster { return &Cluster{pc: platform.Grelon()} }

// Big512 returns a synthetic production-scale cluster: 512 nodes at 8
// GFlop/s in sixteen 32-node cabinets behind a 40 Gb/s backbone. It
// extrapolates the paper's hierarchical layout to the scale where the
// time-cost strategy's estimates are most accurate (§IV-D).
func Big512() *Cluster { return &Cluster{pc: platform.Big512()} }

// Big1024 returns a synthetic 1024-node cluster: thirty-two 32-node
// cabinets with the same links as Big512.
func Big1024() *Cluster { return &Cluster{pc: platform.Big1024()} }

// GrelonHet returns the heterogeneous grelon variant: the last two of the
// five cabinets hold half-speed nodes behind gigabit uplinks — a 2-tier
// speed/bandwidth mix at paper scale.
func GrelonHet() *Cluster { return &Cluster{pc: platform.GrelonHet()} }

// Big512Het returns the heterogeneous big512 variant: the second half of
// the cabinets holds half-speed nodes and the last four reach the
// backbone over 10 Gb/s uplinks instead of 40 Gb/s.
func Big512Het() *Cluster { return &Cluster{pc: platform.Big512Het()} }

// ClusterByName returns the preset cluster with the given name (one of
// ClusterNames).
func ClusterByName(name string) (*Cluster, error) {
	pc, err := platform.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Cluster{pc: pc}, nil
}

// ClusterNames returns the preset names ClusterByName accepts, in display
// order — for CLI flag help and error messages.
func ClusterNames() []string { return platform.Names() }

// ClusterSpec describes a custom cluster. Zero-valued link fields default
// to the paper's gigabit-Ethernet figures; a zero WMax defaults to the 4
// MiB TCP window used throughout the reproduction.
type ClusterSpec struct {
	Name        string
	Procs       int     // number of single-core nodes
	SpeedGFlops float64 // per-node compute speed

	LinkLatency   float64 // private link latency, seconds
	LinkBandwidth float64 // private link bandwidth, bytes/second

	// CabinetSize > 0 selects the hierarchical topology: nodes are grouped
	// into cabinets of this size, connected by uplinks to a top switch.
	CabinetSize     int
	UplinkLatency   float64
	UplinkBandwidth float64

	WMax float64 // TCP window bound for the empirical per-flow bandwidth

	// NodeSpeeds, when non-empty, gives every node its own compute speed
	// in GFlop/s and must have exactly Procs entries, each positive and
	// finite. SpeedGFlops may then be left zero (it defaults to the
	// slowest entry); when set it still provides the uniform baseline the
	// vector deviates from.
	NodeSpeeds []float64

	// NodeBandwidths, when non-empty, gives node i's private link its own
	// bandwidth in bytes/second (applied to both the up and the down
	// direction); exactly Procs entries, each positive and finite.
	NodeBandwidths []float64

	// UplinkBandwidths, when non-empty, gives cabinet k's uplink its own
	// bandwidth in bytes/second (both directions); exactly one entry per
	// cabinet, each positive and finite. Requires CabinetSize > 0.
	UplinkBandwidths []float64
}

// NewCluster builds and validates a custom cluster. Every error it
// returns wraps platform.ErrCluster: a zero or negative rate, a negative
// latency, a NaN or infinite scalar, or a malformed vector.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	pc := &platform.Cluster{
		Name:            spec.Name,
		P:               spec.Procs,
		SpeedGFlops:     spec.SpeedGFlops,
		LinkLatency:     spec.LinkLatency,
		LinkBandwidth:   spec.LinkBandwidth,
		CabinetSize:     spec.CabinetSize,
		UplinkLatency:   spec.UplinkLatency,
		UplinkBandwidth: spec.UplinkBandwidth,
		WMax:            spec.WMax,
	}
	if pc.Name == "" {
		pc.Name = fmt.Sprintf("custom-%d", spec.Procs)
	}
	if pc.LinkBandwidth == 0 {
		pc.LinkBandwidth = platform.GigabitBandwidth
	}
	if pc.LinkLatency == 0 {
		pc.LinkLatency = platform.GigabitLatency
	}
	if pc.CabinetSize > 0 {
		if pc.UplinkBandwidth == 0 {
			pc.UplinkBandwidth = 10 * platform.GigabitBandwidth
		}
		if pc.UplinkLatency == 0 {
			pc.UplinkLatency = platform.GigabitLatency
		}
	}
	if pc.WMax == 0 {
		pc.WMax = platform.DefaultWMax
	}
	if len(spec.NodeSpeeds) > 0 {
		pc.NodeSpeeds = append([]float64(nil), spec.NodeSpeeds...)
		if pc.SpeedGFlops == 0 && len(pc.NodeSpeeds) > 0 {
			// The uniform baseline is unused once a full vector is present;
			// seed it from the vector so validation of the scalar field
			// doesn't reject a spec that only provides per-node speeds.
			pc.SpeedGFlops = pc.NodeSpeeds[0]
		}
	}
	if len(spec.NodeBandwidths) > 0 {
		if len(spec.NodeBandwidths) != pc.P {
			return nil, fmt.Errorf("%w: NodeBandwidths has %d entries, want Procs = %d", platform.ErrCluster, len(spec.NodeBandwidths), pc.P)
		}
		pc.LinkBandwidths = make(map[platform.LinkID]float64, 2*pc.P)
		for i, bw := range spec.NodeBandwidths {
			pc.LinkBandwidths[pc.NodeUpLink(i)] = bw
			pc.LinkBandwidths[pc.NodeDownLink(i)] = bw
		}
	}
	if len(spec.UplinkBandwidths) > 0 {
		if !pc.Hierarchical() {
			return nil, fmt.Errorf("%w: UplinkBandwidths given but CabinetSize is 0 (flat clusters have no uplinks)", platform.ErrCluster)
		}
		if len(spec.UplinkBandwidths) != pc.Cabinets() {
			return nil, fmt.Errorf("%w: UplinkBandwidths has %d entries, want one per cabinet = %d", platform.ErrCluster, len(spec.UplinkBandwidths), pc.Cabinets())
		}
		if pc.LinkBandwidths == nil {
			pc.LinkBandwidths = make(map[platform.LinkID]float64, 2*pc.Cabinets())
		}
		for cab, bw := range spec.UplinkBandwidths {
			pc.LinkBandwidths[pc.CabUpLink(cab)] = bw
			pc.LinkBandwidths[pc.CabDownLink(cab)] = bw
		}
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{pc: pc}, nil
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.pc.Name }

// Procs returns the number of processors (nodes).
func (c *Cluster) Procs() int { return c.pc.P }

// SpeedGFlops returns the per-node compute speed in GFlop/s.
func (c *Cluster) SpeedGFlops() float64 { return c.pc.SpeedGFlops }

// Hierarchical reports whether the cluster uses the cabinet topology.
func (c *Cluster) Hierarchical() bool { return c.pc.Hierarchical() }

// Cabinets returns the number of cabinets (1 for flat clusters).
func (c *Cluster) Cabinets() int { return c.pc.Cabinets() }

// LinkBandwidth returns the private per-node link bandwidth in
// bytes/second.
func (c *Cluster) LinkBandwidth() float64 { return c.pc.LinkBandwidth }

// LinkLatency returns the private per-node link latency in seconds.
func (c *Cluster) LinkLatency() float64 { return c.pc.LinkLatency }

// Hetero reports whether the cluster deviates from uniformity — a
// per-node speed vector and/or per-link bandwidth overrides.
func (c *Cluster) Hetero() bool { return c.pc.Hetero() }

// NodeSpeed returns the compute speed of one node in GFlop/s
// (SpeedGFlops on uniform clusters).
func (c *Cluster) NodeSpeed(node int) float64 { return c.pc.NodeSpeed(node) }
