package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/platform"
)

// scheduleDigest hashes every field of a schedule that the simulator or a
// caller can observe, with floats rendered exactly (hex), so two schedules
// share a digest iff they are byte-identical.
func scheduleDigest(s *Schedule) string {
	h := fnv.New64a()
	wr := func(ss string) { h.Write([]byte(ss)); h.Write([]byte{0}) }
	for _, a := range s.Alloc {
		wr(strconv.Itoa(a))
	}
	for _, ps := range s.Procs {
		for _, p := range ps {
			wr(strconv.Itoa(p))
		}
		wr(";")
	}
	for _, t := range s.Order {
		wr(strconv.Itoa(t))
	}
	for i := range s.EstStart {
		wr(strconv.FormatFloat(s.EstStart[i], 'x', -1, 64))
		wr(strconv.FormatFloat(s.EstFinish[i], 'x', -1, 64))
	}
	wr(strconv.FormatFloat(s.TotalWork, 'x', -1, 64))
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenGraph(class string) *dag.Graph {
	switch class {
	case "layered":
		return gen.Random(gen.RandomParams{
			N: 50, Width: 0.5, Regularity: 0.8, Density: 0.5, Layered: true, Seed: 11})
	case "irregular":
		return gen.Random(gen.RandomParams{
			N: 50, Width: 0.8, Regularity: 0.2, Density: 0.2, Jump: 2, Seed: 23})
	case "fft":
		return gen.FFT(8, 5)
	case "strassen":
		return gen.Strassen(17)
	}
	panic("unknown golden graph class " + class)
}

// TestScheduleGolden pins the exact schedules produced by the mapping
// engine on a cross-section of clusters × graph classes × strategies. All
// ten digests — the big512/big1024 presets were added first — were
// recorded from the pre-overhaul mapper (map/flows estimator, full
// re-sort per candidate evaluation): any divergence means an
// "optimization" changed scheduling decisions, which is a bug.
func TestScheduleGolden(t *testing.T) {
	cases := []struct {
		cl    *platform.Cluster
		class string
		st    Strategy
		want  string
	}{
		{platform.Chti(), "layered", StrategyNone, "ff6f807b44b5b7d5"},
		{platform.Chti(), "strassen", StrategyDelta, "1cc035d5b7bdd568"},
		{platform.Grillon(), "layered", StrategyDelta, "4074fbdbd92e88a0"},
		{platform.Grillon(), "irregular", StrategyTimeCost, "d8ada36e34626bd7"},
		{platform.Grelon(), "fft", StrategyDelta, "e4641bb8606b5fb3"},
		{platform.Grelon(), "irregular", StrategyNone, "e5fdf96203bf1a1d"},
		{platform.Grelon(), "layered", StrategyTimeCost, "781187cd6634af75"},
		{platform.Big512(), "layered", StrategyTimeCost, "e6b8f1d04e8a43a1"},
		{platform.Big512(), "fft", StrategyDelta, "87d5a91dc813a744"},
		{platform.Big1024(), "irregular", StrategyTimeCost, "59f614ea7018788a"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/%v", c.cl.Name, c.class, c.st), func(t *testing.T) {
			g := goldenGraph(c.class)
			costs, a := setup(g, c.cl)
			s := Map(g, costs, c.cl, a, DefaultNaive(c.st))
			if err := s.Validate(g, c.cl); err != nil {
				t.Fatal(err)
			}
			if got := scheduleDigest(s); got != c.want {
				t.Errorf("schedule digest = %s, want %s (scheduling decisions changed)", got, c.want)
			}
		})
	}
}

// TestScheduleGoldenFast pins the fast-profile schedules (DefaultFast:
// AlignAuto at FastAlignCap, the replay threshold living at
// the sim layer) on the same cross-section. Every digest coincides with
// the reference one: the golden graphs' redistributions all sit at or
// under the cap, where AlignAuto solves them exactly — the profiles only
// diverge on redistributions wider than FastAlignCap (the ablation's
// big-scale FFT classes). Both profiles are pinned independently so a
// change to either is a loud diff.
func TestScheduleGoldenFast(t *testing.T) {
	cases := []struct {
		cl    *platform.Cluster
		class string
		st    Strategy
		want  string
	}{
		{platform.Chti(), "layered", StrategyNone, "ff6f807b44b5b7d5"},
		{platform.Chti(), "strassen", StrategyDelta, "1cc035d5b7bdd568"},
		{platform.Grillon(), "layered", StrategyDelta, "4074fbdbd92e88a0"},
		{platform.Grillon(), "irregular", StrategyTimeCost, "d8ada36e34626bd7"},
		{platform.Grelon(), "fft", StrategyDelta, "e4641bb8606b5fb3"},
		{platform.Grelon(), "irregular", StrategyNone, "e5fdf96203bf1a1d"},
		{platform.Grelon(), "layered", StrategyTimeCost, "781187cd6634af75"},
		{platform.Big512(), "layered", StrategyTimeCost, "e6b8f1d04e8a43a1"},
		{platform.Big512(), "fft", StrategyDelta, "87d5a91dc813a744"},
		{platform.Big1024(), "irregular", StrategyTimeCost, "59f614ea7018788a"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/%v", c.cl.Name, c.class, c.st), func(t *testing.T) {
			g := goldenGraph(c.class)
			costs, a := setup(g, c.cl)
			s := Map(g, costs, c.cl, a, DefaultFast(c.st))
			if err := s.Validate(g, c.cl); err != nil {
				t.Fatal(err)
			}
			if got := scheduleDigest(s); got != c.want {
				t.Errorf("schedule digest = %s, want %s (scheduling decisions changed)", got, c.want)
			}
		})
	}
}
