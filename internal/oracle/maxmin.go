package oracle

import (
	"math"
	"sort"
)

// MaxMin computes the max-min fair allocation of flow rates.
//
//   - linkCaps[l] is the capacity of link l (bytes/second).
//   - flowLinks[f] lists the links flow f traverses (possibly empty).
//   - flowCaps[f] is an optional per-flow rate cap (<= 0 means none),
//     implementing the empirical bandwidth β'.
//
// The returned slice holds one rate per flow. A flow with no links and no
// cap receives math.Inf(1).
//
// The algorithm is progressive filling: repeatedly find the most contended
// resource (minimum capacity share among links, or the smallest per-flow
// cap if it is lower), freeze the flows it constrains at that rate, remove
// their consumption, and continue until every flow is frozen. The result
// is the unique max-min fair point: no flow's rate can be increased
// without decreasing the rate of a flow with an equal or smaller rate.
func MaxMin(linkCaps []float64, flowLinks [][]int, flowCaps []float64) []float64 {
	var s MaxMinSolver
	return s.Solve(linkCaps, flowLinks, flowCaps)
}

// MaxMinSolver is MaxMin with reusable scratch buffers, so steady-state
// replays do not allocate on every rate recomputation. The zero value is
// ready to use; it is not safe for concurrent use.
type MaxMinSolver struct {
	rem       []float64 // remaining capacity per link
	cnt       []int     // unfixed flows per link
	active    []int     // links with cnt > 0 (compacted as they drain)
	fixed     []bool    // per flow
	rates     []float64
	linkFlows [][]int // link -> flows through it (backing reused)
	capOrder  []int   // flow indices sorted by ascending cap
}

// Solve is MaxMin on the solver's scratch. The returned slice is owned by
// the solver and valid until the next call.
func (s *MaxMinSolver) Solve(linkCaps []float64, flowLinks [][]int, flowCaps []float64) []float64 {
	nf := len(flowLinks)
	s.rates = resize(s.rates, nf)
	rates := s.rates
	if nf == 0 {
		return rates
	}
	nl := len(linkCaps)
	s.rem = resize(s.rem, nl)
	copy(s.rem, linkCaps)
	s.cnt = resizeInt(s.cnt, nl)
	for i := range s.cnt {
		s.cnt[i] = 0
	}
	if cap(s.linkFlows) < nl {
		s.linkFlows = make([][]int, nl)
	}
	s.linkFlows = s.linkFlows[:nl]
	for l := range s.linkFlows {
		s.linkFlows[l] = s.linkFlows[l][:0]
	}
	s.fixed = resizeBool(s.fixed, nf)

	unfixed := 0
	for f := 0; f < nf; f++ {
		s.fixed[f] = false
		ls := flowLinks[f]
		hasCap := flowCaps != nil && flowCaps[f] > 0
		if len(ls) == 0 && !hasCap {
			rates[f] = math.Inf(1)
			s.fixed[f] = true
			continue
		}
		for _, l := range ls {
			s.cnt[l]++
			s.linkFlows[l] = append(s.linkFlows[l], f)
		}
		unfixed++
	}

	// Active links, compacted in place as they empty.
	s.active = s.active[:0]
	for l := 0; l < nl; l++ {
		if s.cnt[l] > 0 {
			s.active = append(s.active, l)
		}
	}
	// Flows ordered by ascending cap; capPtr advances past fixed flows.
	s.capOrder = s.capOrder[:0]
	if flowCaps != nil {
		for f := 0; f < nf; f++ {
			if !s.fixed[f] && flowCaps[f] > 0 {
				s.capOrder = append(s.capOrder, f)
			}
		}
		sort.Slice(s.capOrder, func(a, b int) bool {
			return flowCaps[s.capOrder[a]] < flowCaps[s.capOrder[b]]
		})
	}
	capPtr := 0

	fix := func(f int, rate float64, ls []int) {
		rates[f] = rate
		s.fixed[f] = true
		unfixed--
		for _, l := range ls {
			s.rem[l] -= rate
			if s.rem[l] < 0 {
				s.rem[l] = 0
			}
			s.cnt[l]--
		}
	}

	for unfixed > 0 {
		// Candidate 1: smallest fair share among active links.
		share := math.Inf(1)
		bottleneck := -1
		w := 0
		for _, l := range s.active {
			if s.cnt[l] == 0 {
				continue // drained; drop from the active list
			}
			s.active[w] = l
			w++
			if sh := s.rem[l] / float64(s.cnt[l]); sh < share {
				share = sh
				bottleneck = l
			}
		}
		s.active = s.active[:w]
		// Candidate 2: smallest cap among unfixed capped flows.
		for capPtr < len(s.capOrder) && s.fixed[s.capOrder[capPtr]] {
			capPtr++
		}
		capFlow := -1
		if capPtr < len(s.capOrder) {
			f := s.capOrder[capPtr]
			if flowCaps[f] < share {
				capFlow = f
			}
		}
		switch {
		case capFlow >= 0:
			fix(capFlow, flowCaps[capFlow], flowLinks[capFlow])
		case bottleneck >= 0:
			if share < 0 {
				share = 0
			}
			// Freeze every unfixed flow through the bottleneck.
			for _, f := range s.linkFlows[bottleneck] {
				if !s.fixed[f] {
					fix(f, share, flowLinks[f])
				}
			}
		default:
			// Defensive no-progress path: no link share beats +Inf (links
			// with infinite capacity never win the strict minimum test)
			// and no capped flow is pending. Freeze the remaining capped
			// flows at their caps, then everything still unfixed at 0 —
			// the rates slice is reused scratch, so leaving stragglers
			// unwritten would silently hand back stale rates from a
			// previous solve.
			for capPtr < len(s.capOrder) {
				f := s.capOrder[capPtr]
				if !s.fixed[f] {
					fix(f, flowCaps[f], flowLinks[f])
				}
				capPtr++
			}
			for f := 0; f < nf && unfixed > 0; f++ {
				if !s.fixed[f] {
					fix(f, 0, flowLinks[f])
				}
			}
			return rates
		}
	}
	return rates
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
