package platform_test

import (
	"fmt"

	"repro/internal/platform"
)

// ExampleCluster_AppendRoute shows the two route shapes of the cluster model:
// flat clusters traverse two private links; grelon's hierarchical network
// adds the cabinet uplinks for cross-cabinet flows.
func ExampleCluster_AppendRoute() {
	g := platform.Grelon()
	intra, latIntra := g.AppendRoute(nil, 0, 5)  // same cabinet
	inter, latInter := g.AppendRoute(nil, 0, 30) // cabinet 0 -> cabinet 1
	fmt.Printf("intra-cabinet: %d links, %.0f µs\n", len(intra), latIntra*1e6)
	fmt.Printf("cross-cabinet: %d links, %.0f µs\n", len(inter), latInter*1e6)
	// Output:
	// intra-cabinet: 2 links, 200 µs
	// cross-cabinet: 4 links, 400 µs
}
