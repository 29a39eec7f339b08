package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/rats"
)

// BenchmarkServe measures the served scheduling path end to end — HTTP
// decode, dispatch, pooled-context pipeline, response encode — under a
// fixed concurrent client load. One op is one completed request. Beyond
// the standard ns/op it reports the client-observed p50-ns and p99-ns
// latency and the aggregate sched/s throughput, which benchtraj's serve
// family records per cluster.
func BenchmarkServe(b *testing.B) {
	for _, tc := range []struct {
		cluster string
		dag     *rats.DAG
	}{
		{"grelon", rats.FFT(32, 1)},
		{"big512", rats.FFT(32, 1)},
	} {
		b.Run(tc.cluster, func(b *testing.B) {
			s := NewServer(ServerConfig{
				Log:      quietLog(),
				MaxQueue: 1 << 20,
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			dagBlob, err := json.Marshal(tc.dag)
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(map[string]any{
				"cluster":  tc.cluster,
				"strategy": "time-cost",
				"dag":      json.RawMessage(dagBlob),
			})
			if err != nil {
				b.Fatal(err)
			}

			const workers = 8
			latencies := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			client := ts.Client()

			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						t0 := time.Now()
						resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("HTTP %d", resp.StatusCode)
							return
						}
						latencies[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if b.Failed() {
				return
			}

			sort.Slice(latencies, func(x, y int) bool { return latencies[x] < latencies[y] })
			q := func(p float64) float64 {
				return float64(latencies[int(p*float64(len(latencies)-1))])
			}
			b.ReportMetric(q(0.50), "p50-ns")
			b.ReportMetric(q(0.99), "p99-ns")
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "sched/s")
		})
	}
}
