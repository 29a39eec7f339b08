package oracle

import (
	"repro/internal/alloc"
	"repro/internal/dag"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// ComputeAlloc is the original full-rewalk allocation procedure: every
// refinement step recomputes the bottom and top levels of the whole DAG,
// re-sums the total work and re-scans all tasks for the best critical-path
// candidate. It is kept verbatim as the semantic oracle for alloc's
// incremental engine — alloc.Compute must return byte-identical
// allocations (TestAllocOracleEquivalence), and the root BenchmarkAlloc
// measures the two side by side.
func ComputeAlloc(g *dag.Graph, costs *moldable.Costs, cl *platform.Cluster, opts alloc.Options) []int {
	n := g.N()
	allocs := make([]int, n)
	real := 0
	for t := 0; t < n; t++ {
		if !g.Tasks[t].Virtual {
			allocs[t] = 1
			real++
		}
	}
	if real == 0 {
		return allocs
	}

	denom := float64(cl.P)
	if opts.Method == alloc.HCPA || opts.Method == alloc.MCPA {
		if real < cl.P {
			denom = float64(real)
		}
	}

	edgeCost := func(e int) float64 { return 0 } // computation-only critical path
	taskCost := func(t int) float64 {
		if g.Tasks[t].Virtual {
			return 0
		}
		return costs.Time(t, allocs[t])
	}

	// Per-level processor budget for MCPA, and per-task level caps for
	// HCPA.
	var levelOf []int
	var levelUse []int
	taskCap := make([]int, n)
	for t := range taskCap {
		taskCap[t] = cl.P
	}
	if opts.Method == alloc.MCPA || opts.Method == alloc.HCPA {
		lvl, nl := g.Levels()
		levelOf = lvl
		levelUse = make([]int, nl)
		width := make([]int, nl)
		for t := 0; t < n; t++ {
			if !g.Tasks[t].Virtual {
				levelUse[lvl[t]]++
				width[lvl[t]]++
			}
		}
		if opts.Method == alloc.HCPA {
			for t := 0; t < n; t++ {
				if g.Tasks[t].Virtual || width[lvl[t]] == 0 {
					continue
				}
				c := (cl.P + width[lvl[t]] - 1) / width[lvl[t]]
				if c < 1 {
					c = 1
				}
				taskCap[t] = c
			}
		}
	}

	totalWork := func() float64 {
		w := 0.0
		for t := 0; t < n; t++ {
			if !g.Tasks[t].Virtual {
				w += costs.Work(t, allocs[t])
			}
		}
		return w
	}

	const rel = 1e-9
	for {
		// One bottom-level and one top-level pass per iteration give both
		// C∞ and the critical-path membership.
		bl := g.BottomLevelsInto(nil, taskCost, edgeCost)
		cInf := 0.0
		for _, v := range bl {
			if v > cInf {
				cInf = v
			}
		}
		area := totalWork() / denom
		if cInf <= area {
			break
		}
		tl := TopLevels(g, taskCost, edgeCost)
		tol := cInf * rel
		onCP := make([]bool, n)
		for t := 0; t < n; t++ {
			onCP[t] = tl[t]+bl[t] >= cInf-tol
		}
		// Give one processor to the critical-path task that benefits the
		// most from the increase (largest execution-time reduction).
		best, bestGain := -1, 0.0
		for t := 0; t < n; t++ {
			if !onCP[t] || g.Tasks[t].Virtual || allocs[t] >= cl.P || allocs[t] >= taskCap[t] {
				continue
			}
			if opts.Method == alloc.MCPA && levelUse[levelOf[t]] >= cl.P {
				continue
			}
			gain := costs.Time(t, allocs[t]) - costs.Time(t, allocs[t]+1)
			if gain > bestGain || (gain == bestGain && best >= 0 && allocs[t] < allocs[best]) {
				best, bestGain = t, gain
			}
		}
		if best < 0 || bestGain <= 0 {
			break // critical path saturated; no further benefit possible
		}
		allocs[best]++
		if opts.Method == alloc.MCPA {
			levelUse[levelOf[best]]++
		}
	}
	return allocs
}
