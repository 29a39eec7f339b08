// Command perfbench measures ratsd, the repository's scheduling service,
// along its served path: HTTP decode, batching, allocation, mapping,
// contended replay, result assembly and encode. It starts the ratsd binary
// it is given, drives it with one workload's traffic generated from -seed
// (an open loop of Poisson arrivals or a closed loop of clients), checks
// every answer, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// -trace 0 reports the end-to-end metrics: client latency p50 and p90 and
// throughput, each the median over 5 s slices of the window, and set-up
// time (the median, over several launches, of the time from starting
// ratsd until it has answered one request per cluster of the workload).
// -trace 1 reports the mean request split over the generator's lateness
// and ratsd's layers, read from the server's per-request record, with
// engine counters per request, and writes the request spans as a Chrome
// trace under -out.
//
// run.sh builds ratsd and this driver from the checkout and runs it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

// setupLaunches is how many times a run starts ratsd to time its set-up;
// the median is reported and the last server started is the one measured.
const setupLaunches = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "paper", "workload: paper, big or tiny")
	seed := flag.Uint64("seed", 1, "seed the workload's requests are drawn from")
	seconds := flag.Int("seconds", 10, "length of the measurement window, in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics and writes a span trace")
	bin := flag.String("ratsd", "", "ratsd binary to measure")
	out := flag.String("out", ".", "directory the span trace is written to")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && (*bin == "" || *seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("need -ratsd, -seconds ≥ 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	tracePath := ""
	if *trace == 1 {
		tracePath = filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *bin, tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures one workload. With a tracePath it reports per-layer
// metrics and writes the span trace there; otherwise end-to-end metrics.
func run(w workload, seed uint64, window time.Duration, bin, tracePath string) (*report, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	pool := w.pool(rng)
	order := rng.Perm(len(pool))

	srv, setup, err := launch(bin, pool)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.url, w.clients)
	answers, errs := warm(c, pool, w.clients)
	samples, loopErrs := drive(c, pool, answers, order, w, rng, window)
	c.http.CloseIdleConnections()
	failed := len(errs) + len(loopErrs)
	errs = append(errs, loopErrs...)
	if err := srv.stop(); err != nil {
		errs = append(errs, err)
	}
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %d more errors\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if len(samples) == 0 {
		return nil, errors.New("no request was answered in the window")
	}

	rep := &report{
		Correct:   len(errs) == 0,
		Attempted: len(pool) + len(samples) + len(loopErrs),
		Failed:    failed,
	}
	if tracePath != "" {
		rep.Metrics = perLayer(samples)
		if err := writeTrace(tracePath, samples); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEnd(samples, window, setup)
	}
	mode := fmt.Sprintf("closed loop of %d clients", w.clients)
	if w.rate > 0 {
		mean, worst := lateness(samples)
		mode = fmt.Sprintf("open loop at %g/s with up to %d in flight, sent %.2f ms late on average and %.1f ms at most",
			w.rate, w.clients, mean, worst)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d distinct) in %v, %s, set-up %.1f ms\n",
		w.name, seed, len(samples), len(pool), window, mode, setup*1e3)
	return rep, nil
}

// launch starts ratsd setupLaunches times, timing each start until the
// server has answered one probe per cluster of the pool. It returns the
// last server, still running, and the median set-up time in seconds.
func launch(bin string, pool []request) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < setupLaunches; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		s, err := start(bin)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		c := newClient(srv.url, 1)
		for _, body := range probes(pool) {
			if _, _, err := c.post(body); err != nil {
				srv.kill()
				return nil, 0, fmt.Errorf("set-up probe: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		c.http.CloseIdleConnections()
	}
	return srv, median(times), nil
}

// probes returns one single-task request for each cluster of the pool.
func probes(pool []request) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, r := range pool {
		if seen[r.target.name] {
			continue
		}
		seen[r.target.name] = true
		req := r.target.fields()
		req["dag"] = json.RawMessage(`{"graph":{"tasks":[{"Name":"probe","M":1e7,"A":100,"Alpha":0.1}],"edges":[]}}`)
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a target's fields are plain finite values
		}
		out = append(out, body)
	}
	return out
}
