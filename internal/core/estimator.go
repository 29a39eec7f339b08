package core

import (
	"repro/internal/platform"
	"repro/internal/redist"
)

// Estimator produces the contention-free time estimates the mapping
// procedures rely on. The paper points out (§IV-D) that these estimates
// deliberately ignore network contention — only the replayed simulation
// accounts for it — and that this is one reason the time-cost strategy
// gets more accurate as clusters grow.
//
// The estimator keeps reusable scratch indexed by processor ID, so
// RedistTime is allocation-free in steady state; an Estimator is
// therefore NOT safe for concurrent use. Every mapping run creates its
// own (Map does this), which is what keeps batch scheduling race-free.
type Estimator struct {
	cl *platform.Cluster

	// Homogeneous per-pair figures, precomputed once: on these clusters the
	// empirical bandwidth β' and the route latency only depend on whether
	// the two nodes share a cabinet.
	latIntra, latCross float64
	bwIntra, bwCross   float64

	// hetLinks switches RedistTime to per-pair route figures built from the
	// id-indexed link caches below: with bandwidth/latency overrides
	// present the two-figure classification above no longer holds. False on
	// uniform clusters, which keep the precomputed figures.
	hetLinks bool

	// Id-indexed link-figure caches, built once per estimator when
	// hetLinks: per-node up/down capacities and latencies plus per-cabinet
	// uplink figures. RedistTime recombines them with exactly the branch
	// structure of platform.EffectiveBandwidth/RouteLatency (min chain in
	// the same visit order, latencies summed pairwise), so the cached path
	// is bit-identical to the per-pair map lookups it replaces — which were
	// ~2× of the hetero mapping phase's cost (O(blocks) map probes per
	// candidate evaluation).
	bwOverride, latOverride bool
	upCap, downCap          []float64 // by node id
	cabUpCap, cabDownCap    []float64 // by cabinet
	upLat, downLat          []float64 // by node id
	cabUpLat, cabDownLat    []float64 // by cabinet

	// Scratch reused across RedistTime calls, indexed by processor ID and
	// allocated lazily on first use. Entries are zeroed again before each
	// call returns, so the slices never need wholesale clearing.
	outBytes []float64 // bytes leaving each sender node
	inBytes  []float64 // bytes entering each receiver node
	setCnt   []int     // same-set fallback counters for P beyond the bitset range
}

// NewEstimator returns an estimator for the given cluster.
func NewEstimator(cl *platform.Cluster) *Estimator {
	e := &Estimator{cl: cl, hetLinks: cl.HeteroLinks()}
	if cl.P > 1 {
		if !cl.Hierarchical() || cl.CabinetSize > 1 {
			// Nodes 0 and 1 share a switch (or a cabinet).
			e.latIntra = cl.RouteLatency(0, 1)
			e.bwIntra = cl.EffectiveBandwidth(0, 1)
		}
		if cl.Hierarchical() && cl.P > cl.CabinetSize {
			// Nodes 0 and CabinetSize sit in different cabinets.
			e.latCross = cl.RouteLatency(0, cl.CabinetSize)
			e.bwCross = cl.EffectiveBandwidth(0, cl.CabinetSize)
		}
	}
	if e.hetLinks {
		e.bwOverride = len(cl.LinkBandwidths) > 0
		e.latOverride = len(cl.LinkLatencies) > 0
		e.upCap = make([]float64, cl.P)
		e.downCap = make([]float64, cl.P)
		e.upLat = make([]float64, cl.P)
		e.downLat = make([]float64, cl.P)
		for i := 0; i < cl.P; i++ {
			e.upCap[i] = cl.LinkCapacity(cl.NodeUpLink(i))
			e.downCap[i] = cl.LinkCapacity(cl.NodeDownLink(i))
			e.upLat[i] = cl.LinkDelay(cl.NodeUpLink(i))
			e.downLat[i] = cl.LinkDelay(cl.NodeDownLink(i))
		}
		if cl.Hierarchical() {
			cabs := cl.Cabinets()
			e.cabUpCap = make([]float64, cabs)
			e.cabDownCap = make([]float64, cabs)
			e.cabUpLat = make([]float64, cabs)
			e.cabDownLat = make([]float64, cabs)
			for c := 0; c < cabs; c++ {
				e.cabUpCap[c] = cl.LinkCapacity(cl.CabUpLink(c))
				e.cabDownCap[c] = cl.LinkCapacity(cl.CabDownLink(c))
				e.cabUpLat[c] = cl.LinkDelay(cl.CabUpLink(c))
				e.cabDownLat[c] = cl.LinkDelay(cl.CabDownLink(c))
			}
		}
	}
	return e
}

// hetFigures returns the empirical per-flow bandwidth β' and the one-way
// route latency between two distinct nodes from the id-indexed caches,
// replicating platform.EffectiveBandwidth/RouteLatency branch for branch
// (same min-chain visit order, same pairwise latency sums, same WMax cap
// comparison) so the results are bit-identical to the map-consulting
// queries.
func (e *Estimator) hetFigures(src, dst int) (bw, lat float64) {
	cl := e.cl
	cross := cl.CabinetSize > 0 && src/cl.CabinetSize != dst/cl.CabinetSize
	if e.latOverride {
		lat = e.upLat[src] + e.downLat[dst]
		if cross {
			lat += e.cabUpLat[src/cl.CabinetSize] + e.cabDownLat[dst/cl.CabinetSize]
		}
	} else if cross {
		lat = 2*cl.LinkLatency + 2*cl.UplinkLatency
	} else {
		lat = 2 * cl.LinkLatency
	}
	if e.bwOverride {
		bw = e.upCap[src]
		if v := e.downCap[dst]; v < bw {
			bw = v
		}
		if cross {
			if v := e.cabUpCap[src/cl.CabinetSize]; v < bw {
				bw = v
			}
			if v := e.cabDownCap[dst/cl.CabinetSize]; v < bw {
				bw = v
			}
		}
	} else {
		bw = cl.LinkBandwidth
		if cross && cl.UplinkBandwidth < bw {
			bw = cl.UplinkBandwidth
		}
	}
	if rtt := 2 * lat; rtt > 0 {
		if c := cl.WMax / rtt; c < bw {
			bw = c
		}
	}
	return bw, lat
}

func (e *Estimator) ensureScratch() {
	if e.outBytes == nil {
		e.outBytes = make([]float64, e.cl.P)
		e.inBytes = make([]float64, e.cl.P)
		if e.cl.P > redist.BitsetMaxP {
			e.setCnt = make([]int, e.cl.P)
		}
	}
}

// sameSet is redist.SameSet with an allocation-free multiset fallback for
// custom clusters beyond the stack-bitset range, so RedistTime stays
// clean on the steady-state path at any P.
func (e *Estimator) sameSet(a, b []int) bool {
	if e.setCnt == nil {
		return redist.SameSet(a, b)
	}
	if len(a) != len(b) {
		return false
	}
	cnt := e.setCnt
	for _, x := range a {
		cnt[x]++
	}
	for _, y := range b {
		cnt[y]--
	}
	eq := true
	for _, x := range a {
		if cnt[x] != 0 {
			eq = false
		}
		cnt[x] = 0
	}
	for _, y := range b {
		if cnt[y] != 0 {
			eq = false
		}
		cnt[y] = 0
	}
	return eq
}

// RedistTime estimates the duration of redistributing bytes from the
// sender processor set to the receiver processor set (both in rank order,
// each duplicate-free) under the bounded multi-port model without
// cross-redistribution contention:
//
//	max over nodes of (bytes sent / β_out, bytes received / β_in)
//	  capped below by the slowest individual flow at its empirical
//	  bandwidth β', plus the longest route latency involved.
//
// Same-set same-size redistributions cost zero (§II-A). The banded block
// matrix is traversed directly (redist.VisitBlocks); nothing is allocated.
func (e *Estimator) RedistTime(bytes float64, senders, receivers []int) float64 {
	if bytes <= 0 || len(senders) == 0 || len(receivers) == 0 {
		return 0
	}
	e.ensureScratch()
	if e.sameSet(senders, receivers) {
		return 0
	}
	out, in := e.outBytes, e.inBytes
	hier := e.cl.Hierarchical()
	cabSize := e.cl.CabinetSize
	t := 0.0
	maxLat := 0.0
	redist.VisitBlocks(bytes, len(senders), len(receivers), func(i, j int, v float64) {
		src, dst := senders[i], receivers[j]
		if src == dst {
			return // local copies are free
		}
		out[src] += v
		in[dst] += v
		var bw, lat float64
		if e.hetLinks {
			bw, lat = e.hetFigures(src, dst)
		} else if hier && src/cabSize != dst/cabSize {
			bw, lat = e.bwCross, e.latCross
		} else {
			bw, lat = e.bwIntra, e.latIntra
		}
		// An individual flow cannot beat its empirical bandwidth.
		if bw > 0 {
			if ft := v / bw; ft > t {
				t = ft
			}
		}
		if lat > maxLat {
			maxLat = lat
		}
	})
	beta := e.cl.LinkBandwidth
	for _, s := range senders {
		if e.hetLinks {
			beta = e.upCap[s]
		}
		if v := out[s] / beta; v > t {
			t = v
		}
		out[s] = 0
	}
	for _, r := range receivers {
		if e.hetLinks {
			beta = e.downCap[r]
		}
		if v := in[r] / beta; v > t {
			t = v
		}
		in[r] = 0
	}
	if t == 0 {
		return 0 // everything was local after all
	}
	return t + maxLat
}

// EdgeTimeSimple is the coarse per-edge communication estimate used inside
// bottom-level priorities and by the allocation step, where the mapping is
// still unknown: full volume over one private link plus one route latency.
func (e *Estimator) EdgeTimeSimple(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes/e.cl.LinkBandwidth + 2*e.cl.LinkLatency
}
