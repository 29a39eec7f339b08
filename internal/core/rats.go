package core

import "math"

// strategyPlacement implements the redistribution-aware conditions of
// Algorithm 1, line 9: if a predecessor allocation matches the delta or
// time-cost conditions, the task is mapped onto that predecessor's exact
// processor set (inheriting its rank order, which makes the corresponding
// redistribution an identity and therefore free). It returns the adopted
// predecessor alongside the placement, or (nil, −1) when the task should
// fall back to the baseline HCPA mapping (line 14).
//
// Only unclaimed predecessors are candidates: each parent allocation can
// be inherited once (see mapper.claimed).
//
// The placement is returned by value (ok reports whether one was found):
// a pointer would force every candidate through the heap, one allocation
// per evaluated task.
func (m *mapper) strategyPlacement(t int) (pl placement, pred int, ok bool) {
	switch m.opts.Strategy {
	case StrategyDelta:
		return m.deltaPlacement(t)
	case StrategyTimeCost:
		return m.timeCostPlacement(t)
	}
	return placement{}, -1, false
}

// deltaBounds converts the mindelta/maxdelta fractions into per-task
// absolute bounds: with Np(t) = 6 and maxdelta = 0.5 a stretched
// allocation may have at most 9 processors (δmax = 3); with
// mindelta = −0.5 a packed allocation has at least 3 (δmin = −3).
func (m *mapper) deltaBounds(t int) (dMin, dMax int) {
	np := float64(m.alloc[t])
	dMax = int(math.Floor(m.opts.MaxDelta*np + 1e-9))
	dMin = -int(math.Floor(-m.opts.MinDelta*np + 1e-9))
	return dMin, dMax
}

// deltaPlacement implements the delta strategy (§III-A/B):
//
//  1. compute δ+ (closest unclaimed predecessor with a larger-or-equal
//     allocation) and δ− (closest unclaimed predecessor with a smaller
//     allocation);
//  2. keep the candidates within [δmin, δmax];
//  3. adopt the modification with the smallest |δ| (a stretch wins ties,
//     since it also shortens the task), mapping the task onto the selected
//     predecessor's processors;
//  4. fall back to the baseline mapping when the adoption would strictly
//     increase the task's own estimated finish time. Algorithm 1 (line 4)
//     computes an execution-time estimate for every ready node, which
//     supports this guard; without it, estimation-free snaps onto
//     late-available processor sets backfire (an effect §IV-D acknowledges
//     on large clusters; docs/ARCHITECTURE.md, "Design reconstructions").
func (m *mapper) deltaPlacement(t int) (placement, int, bool) {
	pred := m.deltaAdoptPred(t)
	if pred < 0 {
		return placement{}, -1, false
	}
	pl := m.evalOn(t, append(m.getBuf(), m.procs[pred]...))
	// The adoption candidate pl doubles as the dedup reference: when the
	// earliest-available set aligns onto exactly the adopted predecessor's
	// rank order, the baseline re-evaluation is skipped.
	base := m.baselinePlacementDedup(t, &pl)
	m.putBuf(base.procs)
	if base.eft < pl.eft {
		m.putBuf(pl.procs)
		return placement{}, -1, false
	}
	return pl, pred, true
}

// deltaAdoptPred runs the delta strategy's estimation-free predecessor
// selection (steps 1–3 of deltaPlacement's doc comment) and returns the
// adopted predecessor, or −1 when no inheritable predecessor fits the
// [δmin, δmax] bounds.
func (m *mapper) deltaAdoptPred(t int) int {
	dPlus, predPlus, dMinus, predMinus := m.deltas(t)
	dMin, dMax := m.deltaBounds(t)

	stretchOK := predPlus >= 0 && dPlus <= dMax
	packOK := predMinus >= 0 && dMinus >= dMin

	switch {
	case stretchOK && packOK:
		if dPlus <= -dMinus {
			return predPlus
		}
		return predMinus
	case stretchOK:
		return predPlus
	case packOK:
		return predMinus
	}
	return -1
}

// rho returns the time-cost ratio of Equation 1 for executing t on p'
// processors instead of its original allocation:
//
//	ρ = (T(t, Np(t))·Np(t)) / (T(t, p')·p')
//
// Under the Amdahl model work is non-decreasing in p, so ρ ≤ 1 for a
// stretch; values close to 1 mean the execution-time reduction comes at
// little extra work.
func (m *mapper) rho(t, pPrime int) float64 {
	w := m.costs.Work(t, pPrime)
	if w == 0 {
		return 0
	}
	return m.costs.Work(t, m.alloc[t]) / w
}

// timeCostPlacement implements the time-cost strategy (§III-A/B):
//
//   - Stretch: among unclaimed predecessors with Np(pred) ≥ Np(t), take
//     the one maximizing ρ; accept if ρ ≥ minrho.
//   - Pack (when enabled): an unclaimed predecessor with Np(pred) < Np(t)
//     is accepted only if the estimated finish time is not worse than the
//     baseline mapping's.
//
// When both pass, the candidate with the earliest estimated finish wins.
func (m *mapper) timeCostPlacement(t int) (placement, int, bool) {
	var best placement
	haveBest := false
	bestPred := -1
	bestEFT := math.Inf(1)

	// Stretch candidate: maximize ρ over larger-or-equal predecessors.
	if stretchPred := m.timeCostStretchPred(t); stretchPred >= 0 {
		pl := m.evalOn(t, append(m.getBuf(), m.procs[stretchPred]...))
		best, haveBest, bestPred, bestEFT = pl, true, stretchPred, pl.eft
	}
	cands := m.inheritablePreds(t)

	// Pack candidates: must not degrade the estimated finish time.
	if m.opts.Packing {
		// An accepted stretch is the dedup reference for the baseline:
		// pack candidates can never coincide with it (their sets are
		// strictly smaller than the allocation), but the stretch —
		// exactly the allocation size when Np(pred) = Np(t) — often does.
		var stretchRef *placement
		if haveBest {
			stretchRef = &best
		}
		baseline := m.baselinePlacementDedup(t, stretchRef)
		for _, p := range cands {
			if len(m.procs[p]) >= m.alloc[t] {
				continue
			}
			pl := m.evalOn(t, append(m.getBuf(), m.procs[p]...))
			if pl.eft <= baseline.eft && pl.eft < bestEFT {
				if haveBest {
					m.putBuf(best.procs)
				}
				best, haveBest, bestPred, bestEFT = pl, true, p, pl.eft
			} else {
				m.putBuf(pl.procs)
			}
		}
		m.putBuf(baseline.procs)
	}
	return best, bestPred, haveBest
}

// timeCostStretchPred runs the time-cost strategy's estimation-free
// stretch selection — maximize ρ over inheritable predecessors with
// Np(pred) ≥ Np(t), accept when ρ ≥ minrho — and returns the selected
// predecessor, or −1.
func (m *mapper) timeCostStretchPred(t int) int {
	bestRho := -1.0
	stretchPred := -1
	for _, p := range m.inheritablePreds(t) {
		if len(m.procs[p]) < m.alloc[t] {
			continue
		}
		if r := m.rho(t, len(m.procs[p])); r > bestRho {
			bestRho = r
			stretchPred = p
		}
	}
	if stretchPred >= 0 && bestRho >= m.opts.MinRho {
		return stretchPred
	}
	return -1
}
