// Command loadgen drives a running ratsd with a concurrent stream of
// scheduling requests and reports client-side latency percentiles and
// throughput. It is the measurement companion of cmd/ratsd: the server's
// /metrics endpoint reports what the service observed, loadgen reports
// what a client experienced — queueing and HTTP included.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-n 200] [-c 8] [-rate 0]
//	        [-cluster grelon] [-strategy time-cost] [-dag fft] [-size 32]
//	        [-timeout-ms 0] [-json] [-out metrics.jsonl]
//
// -rate 0 runs a closed loop: c workers fire requests back to back.
// -rate > 0 runs an open loop at that many requests/second overall,
// spread across the workers, which is the mode that exposes queueing
// behaviour. The exit status is nonzero if any request fails.
//
// -out FILE writes one JSON line per answered request: the server-side
// serve.RequestMetrics record from the response envelope (decode time,
// queue wait, pipeline phase times, engine counters) joined with the
// client-observed latency — the raw rows behind the percentile summary,
// ready for jq or a dataframe.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/rats"
)

type result struct {
	status  int
	latency time.Duration
	err     error
	serve   json.RawMessage // "serve" field of the response envelope, when parsed
}

// row is one -out JSONL record: the server-side per-request metrics joined
// with what this client observed for the same request.
type row struct {
	ClientMs     float64         `json:"client_ms"`
	ClientStatus int             `json:"client_status"`
	Serve        json.RawMessage `json:"serve,omitempty"`
	Error        string          `json:"error,omitempty"`
}

// Summary is the -json report.
type Summary struct {
	Requests  int     `json:"requests"`
	Succeeded int     `json:"succeeded"`
	Shed      int     `json:"shed"` // 429 responses
	Failed    int     `json:"failed"`
	Elapsed   float64 `json:"elapsed_seconds"`

	SchedulesPerSecond float64 `json:"schedules_per_second"`
	P50Ms              float64 `json:"p50_ms"`
	P90Ms              float64 `json:"p90_ms"`
	P99Ms              float64 `json:"p99_ms"`
	MaxMs              float64 `json:"max_ms"`
}

func main() {
	url := flag.String("url", "http://localhost:8080", "ratsd base URL")
	n := flag.Int("n", 200, "total number of requests")
	c := flag.Int("c", 8, "concurrent workers")
	rate := flag.Float64("rate", 0, "open-loop request rate in req/s (0 = closed loop)")
	cluster := flag.String("cluster", "grelon", "target cluster preset")
	strategy := flag.String("strategy", "time-cost", "mapping strategy")
	dagKind := flag.String("dag", "fft", "workload: fft, strassen or random")
	size := flag.Int("size", 32, "workload size (fft points or random task count)")
	timeoutMs := flag.Int("timeout-ms", 0, "per-request server-side deadline (0 = server default)")
	jsonOut := flag.Bool("json", false, "print the summary as JSON")
	outPath := flag.String("out", "", "write per-request JSONL records (server metrics + client latency) to this file")
	flag.Parse()
	keepBodies := *outPath != ""

	body, err := requestBody(*dagKind, *size, *cluster, *strategy, *timeoutMs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	results := make([]result, *n)
	var next atomic.Int64
	var ticker <-chan time.Time
	if *rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer t.Stop()
		ticker = t.C
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				if ticker != nil {
					<-ticker
				}
				results[i] = fire(client, *url, body, keepBodies)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := summarize(results, elapsed)
	if *outPath != "" {
		if err := writeRows(*outPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing -out: %v\n", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(sum)
	} else {
		fmt.Printf("loadgen: %d requests in %.2fs (%d workers, %s/%s on %s)\n",
			sum.Requests, sum.Elapsed, *c, *dagKind, *strategy, *cluster)
		fmt.Printf("  succeeded %d, shed %d, failed %d\n", sum.Succeeded, sum.Shed, sum.Failed)
		fmt.Printf("  throughput %.1f schedules/s\n", sum.SchedulesPerSecond)
		fmt.Printf("  latency p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
			sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.MaxMs)
	}
	if sum.Failed > 0 {
		os.Exit(1)
	}
}

// requestBody builds the constant POST body all workers reuse.
func requestBody(kind string, size int, cluster, strategy string, timeoutMs int) ([]byte, error) {
	var d *rats.DAG
	switch kind {
	case "fft":
		d = rats.FFT(size, 1)
	case "strassen":
		d = rats.Strassen(1)
	case "random":
		d = rats.Random(rats.RandomSpec{
			N: size, Width: 0.5, Density: 0.4, Regularity: 0.7, Layered: true, Seed: 1,
		})
	default:
		return nil, fmt.Errorf("unknown -dag %q (want fft, strassen or random)", kind)
	}
	dagBlob, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	req := map[string]any{
		"cluster":  cluster,
		"strategy": strategy,
		"dag":      json.RawMessage(dagBlob),
	}
	if timeoutMs > 0 {
		req["timeout_ms"] = timeoutMs
	}
	return json.Marshal(req)
}

func fire(client *http.Client, url string, body []byte, keepBody bool) result {
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{err: err, latency: time.Since(t0)}
	}
	var serve json.RawMessage
	if keepBody {
		// Pull the server-side metrics record out of the envelope; a body
		// that fails to parse just leaves serve empty in the JSONL row.
		blob, _ := io.ReadAll(resp.Body)
		var env struct {
			Serve json.RawMessage `json:"serve"`
		}
		if json.Unmarshal(blob, &env) == nil {
			serve = env.Serve
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	return result{status: resp.StatusCode, latency: time.Since(t0), serve: serve}
}

// writeRows emits one JSON line per request to path, in request order.
func writeRows(path string, results []result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		rw := row{
			ClientMs:     float64(r.latency) / float64(time.Millisecond),
			ClientStatus: r.status,
			Serve:        r.serve,
		}
		if r.err != nil {
			rw.Error = r.err.Error()
		}
		if err := enc.Encode(rw); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func summarize(results []result, elapsed time.Duration) Summary {
	sum := Summary{Requests: len(results), Elapsed: elapsed.Seconds()}
	var lat []float64
	for _, r := range results {
		switch {
		case r.err != nil:
			sum.Failed++
		case r.status == http.StatusOK:
			sum.Succeeded++
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		case r.status == http.StatusTooManyRequests:
			sum.Shed++
		default:
			sum.Failed++
		}
	}
	if sum.Elapsed > 0 {
		sum.SchedulesPerSecond = float64(sum.Succeeded) / sum.Elapsed
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		sum.P50Ms = quantile(lat, 0.50)
		sum.P90Ms = quantile(lat, 0.90)
		sum.P99Ms = quantile(lat, 0.99)
		sum.MaxMs = lat[len(lat)-1]
	}
	return sum
}

// quantile reads the q-quantile from an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
