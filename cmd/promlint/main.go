// Command promlint validates Prometheus text exposition read from stdin
// (or a file argument), in the spirit of `promtool check metrics`. It
// exits 1 and prints one line per problem when the exposition is invalid.
//
// Usage:
//
//	curl -s localhost:8080/metrics?format=prometheus | promlint
//	promlint metrics.txt
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/oracle"
)

func main() {
	var in io.Reader = os.Stdin
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "promlint:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	errs := oracle.LintPrometheus(in)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "promlint:", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
}
