package alloc_test

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/oracle"
	"repro/internal/platform"
)

// allocDigest hashes an allocation vector so two allocations share a
// digest iff they are identical, mirroring core's scheduleDigest.
func allocDigest(a []int) string {
	h := fnv.New64a()
	for _, v := range a {
		h.Write([]byte(strconv.Itoa(v)))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenAllocGraph(class string) *dag.Graph {
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

// TestAllocGolden pins the exact allocations produced on a cross-section
// of clusters × graph classes × methods. All digests were recorded from
// the pre-incremental full-rewalk allocator: any divergence means an
// "optimization" changed allocation decisions, which is a bug. The same
// graph classes feed core's schedule goldens, so an allocation regression
// is caught here before it cascades into mapping digests.
func TestAllocGolden(t *testing.T) {
	cases := []struct {
		cl    *platform.Cluster
		class string
		opts  alloc.Options
		want  string
	}{
		{platform.Chti(), "layered", alloc.Options{Method: alloc.CPA}, "ff1ddc55eee03f95"},
		{platform.Grillon(), "layered", alloc.DefaultOptions(), "b6914ef5ad1c26bf"},
		{platform.Grelon(), "fft", alloc.DefaultOptions(), "0cb4f9064b1a7776"},
		{platform.Grelon(), "irregular", alloc.Options{Method: alloc.MCPA}, "53486b1a9d5ada3a"},
		{platform.Grelon(), "strassen", alloc.Options{Method: alloc.HCPA}, "421dd3cfb3469bde"},
		{platform.Big512(), "layered", alloc.DefaultOptions(), "42378b2a4198b8bd"},
		{platform.Big512(), "fft", alloc.Options{Method: alloc.CPA}, "05facf03433c9b31"},
		// The last digest coincides with the grelon/irregular row above:
		// with ~50 real tasks the HCPA/MCPA area denominator is min(P, N) =
		// N on both clusters and no cap binds, so the refinement makes the
		// same grants — the digest equality is real, not a copy-paste slip.
		{platform.Big1024(), "irregular", alloc.DefaultOptions(), "53486b1a9d5ada3a"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/%v", c.cl.Name, c.class, c.opts.Method), func(t *testing.T) {
			g := goldenAllocGraph(c.class)
			costs := moldable.NewCosts(g, c.cl.SpeedGFlops)
			a := alloc.Compute(g, costs, c.cl, c.opts)
			if got := allocDigest(a); got != c.want {
				t.Errorf("allocation digest = %s, want %s (allocation decisions changed)", got, c.want)
			}
			if ref := allocDigest(oracle.ComputeAlloc(g, costs, c.cl, c.opts)); ref != c.want {
				t.Errorf("reference digest = %s, want %s (the golden was recorded from the reference walk)", ref, c.want)
			}
		})
	}
}
