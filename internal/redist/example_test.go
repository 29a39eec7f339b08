package redist_test

import (
	"fmt"

	"repro/internal/redist"
)

// ExampleBlockMatrix reproduces Table I of the paper: redistributing 10
// units of data from a 4-processor 1-D block layout to a 5-processor one.
func ExampleBlockMatrix() {
	m := redist.BlockMatrix(10, 4, 5)
	for i := 0; i < 4; i++ {
		row := ""
		for j := 0; j < 5; j++ {
			row += fmt.Sprintf(" %4.1f", m.At(i, j))
		}
		fmt.Println(row)
	}
	// Output:
	//   2.0  0.5  0.0  0.0  0.0
	//   0.0  1.5  1.0  0.0  0.0
	//   0.0  0.0  1.0  1.5  0.0
	//   0.0  0.0  0.0  0.5  2.0
}

// ExampleAlignReceiversScratch shows the self-communication maximization of
// §II-A: when producer and consumer share processors, the consumer's rank
// order is permuted so data stays local.
func ExampleAlignReceiversScratch() {
	senders := []int{3, 7, 9, 11}
	receivers := []int{9, 3, 11, 7} // same set, scrambled
	aligned := redist.AlignReceiversScratch(nil, 100, senders, receivers, nil)
	fmt.Println("aligned ranks:", aligned)
	fmt.Println("remote bytes :", redist.RemoteBytes(100, senders, aligned))
	// Output:
	// aligned ranks: [3 7 9 11]
	// remote bytes : 0
}

// ExampleFlows expands a redistribution into the point-to-point transfers
// the simulator executes.
func ExampleFlows() {
	for _, f := range redist.Flows(12, []int{0, 1}, []int{1, 2, 3}) {
		fmt.Printf("proc %d -> proc %d: %g\n", f.SrcProc, f.DstProc, f.Bytes)
	}
	// Output:
	// proc 0 -> proc 1: 4
	// proc 0 -> proc 2: 2
	// proc 1 -> proc 2: 2
	// proc 1 -> proc 3: 4
}
