package simdag

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// replayDigest hashes every replayed time of a result — task starts and
// finishes, per-edge redistribution finishes and the makespan — as exact
// hex floats, so two replays share a digest iff they are bit-identical.
func replayDigest(r *Result) string {
	h := fnv.New64a()
	wr := func(xs ...float64) {
		for _, x := range xs {
			h.Write([]byte(strconv.FormatFloat(x, 'x', -1, 64)))
			h.Write([]byte{0})
		}
		h.Write([]byte{';'})
	}
	wr(r.Start...)
	wr(r.Finish...)
	wr(r.EdgeFinish...)
	wr(r.Makespan)
	return fmt.Sprintf("%016x", h.Sum64())
}

func layeredGraph(n int) *dag.Graph {
	return gen.Random(gen.RandomParams{
		N: n, Width: 0.8, Regularity: 0.8, Density: 0.8, Layered: true, Seed: int64(n) + 7})
}

// replayGoldenCases pins the contended replay of fixed time-cost schedules
// on the paper clusters, the heterogeneous grelon preset and big512. The
// digests were recorded before the level log stored per-link flush deltas:
// the merge replay's prefix restore and clean-level recommits must
// reproduce the entry-walking trajectory bit for bit, not merely within
// the oracle's 1e-9.
var replayGoldenCases = []struct {
	cl    *platform.Cluster
	label string
	g     func() *dag.Graph
	want  string
}{
	{platform.Grillon(), "layered-n50", func() *dag.Graph { return layeredGraph(50) }, "790552612aede7b8"},
	{platform.Grillon(), "layered-n100", func() *dag.Graph { return layeredGraph(100) }, "53b20a936abaf8b9"},
	{platform.Grelon(), "layered-n50", func() *dag.Graph { return layeredGraph(50) }, "96d957df0ad3afd8"},
	{platform.Grelon(), "layered-n100", func() *dag.Graph { return layeredGraph(100) }, "d43eb99519f7735f"},
	{platform.GrelonHet(), "layered-n50", func() *dag.Graph { return layeredGraph(50) }, "7db4bf47a9c2accd"},
	{platform.Big512(), "layered-n100", func() *dag.Graph { return layeredGraph(100) }, "50184d8757404310"},
	{platform.Big512(), "fft-k32", func() *dag.Graph { return gen.FFT(32, 9) }, "010b2fdd2d6b89dd"},
}

// TestReplayGolden replays every golden case through Execute and compares
// digests. Together the cases must exercise the merge replay's
// incremental solves, checkpoint restores and orphaned levels, so the
// digests cannot pass on a path that never repairs the log, and the
// small-population solves, whose threshold the digests depend on.
func TestReplayGolden(t *testing.T) {
	var incr, restores, orphans, small uint64
	for _, c := range replayGoldenCases {
		c := c
		t.Run(c.cl.Name+"/"+c.label, func(t *testing.T) {
			g := c.g()
			costs := moldable.NewCosts(g, c.cl.PlanSpeedGFlops())
			a := alloc.Compute(g, costs, c.cl, alloc.DefaultOptions())
			s := core.Map(g, costs, c.cl, a, core.DefaultNaive(core.StrategyTimeCost))
			r, err := Execute(g, costs, c.cl, s)
			if err != nil {
				t.Fatal(err)
			}
			incr += r.Counters.SolvesIncremental
			restores += r.Counters.CkRestores
			orphans += r.Counters.OrphanLevels
			small += r.Counters.SolvesScratch
			if got := replayDigest(r); got != c.want {
				t.Errorf("replay digest = %s, want %s (replayed times changed)", got, c.want)
			}
		})
	}
	if incr == 0 || restores == 0 || orphans == 0 {
		t.Errorf("golden cases never repair the level log: %d incremental solves, %d checkpoint restores, %d orphaned levels",
			incr, restores, orphans)
	}
	if small == 0 {
		t.Error("golden cases never solve a small population")
	}
}
