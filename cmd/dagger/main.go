// Command dagger generates mixed-parallel application task graphs (the
// workloads of Table III) and writes them as Graphviz DOT or JSON — a
// reimplementation of the paper's DAG generation program (reference [12]),
// built on the public rats API.
//
// Usage:
//
//	dagger -app irregular -n 50 -width 0.5 -density 0.2 -jump 2 -format dot
//	dagger -app fft -k 16 -format json > fft16.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/rats"
)

func main() {
	app := flag.String("app", "layered", "application kind: layered, irregular, fft, strassen")
	n := flag.Int("n", 25, "computation tasks (random kinds)")
	k := flag.Int("k", 8, "FFT data points (power of two)")
	width := flag.Float64("width", 0.5, "width parameter in (0,1]")
	density := flag.Float64("density", 0.2, "density parameter in (0,1]")
	regularity := flag.Float64("regularity", 0.8, "regularity parameter in [0,1]")
	jump := flag.Int("jump", 1, "jump edge length (irregular): 1, 2 or 4")
	seed := flag.Int64("seed", 1, "generator seed")
	format := flag.String("format", "dot", "output format: dot or json")
	flag.Parse()

	var d *rats.DAG
	switch *app {
	case "layered":
		d = rats.Random(rats.RandomSpec{N: *n, Width: *width, Density: *density,
			Regularity: *regularity, Layered: true, Seed: *seed})
	case "irregular":
		d = rats.Random(rats.RandomSpec{N: *n, Width: *width, Density: *density,
			Regularity: *regularity, Jump: *jump, Seed: *seed})
	case "fft":
		d = rats.FFT(*k, *seed)
	case "strassen":
		d = rats.Strassen(*seed)
	default:
		fmt.Fprintf(os.Stderr, "dagger: unknown application kind %q\n", *app)
		os.Exit(1)
	}
	if err := d.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "dagger:", err)
		os.Exit(1)
	}

	switch *format {
	case "dot":
		if err := d.WriteDOT(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dagger:", err)
			os.Exit(1)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintln(os.Stderr, "dagger:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "dagger: unknown format %q\n", *format)
		os.Exit(1)
	}
}
