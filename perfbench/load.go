package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// serveRecord is the "serve" member of a ratsd response: the server's own
// timing of the request and the engine counters of its pipeline run.
type serveRecord struct {
	BatchSize   int                `json:"batch_size"`
	QueueWaitMs float64            `json:"queue_wait_ms"`
	AllocMs     float64            `json:"alloc_ms"`
	MapMs       float64            `json:"map_ms"`
	SimMs       float64            `json:"sim_ms"`
	TotalMs     float64            `json:"total_ms"`
	Counters    map[string]float64 `json:"counters"`
}

// sample is one answered request of the measurement window.
type sample struct {
	client  int
	req     int           // index of the request in the pool
	start   time.Duration // when it was due, since the window opened
	lag     time.Duration // how long after it was due it was sent
	latency time.Duration // from when it was due until it was answered
	serve   serveRecord
}

type client struct {
	http *http.Client
	url  string
}

func newClient(base string, conns int) *client {
	return &client{
		url: base + "/v1/schedule",
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns},
		},
	}
}

// post sends one schedule request and returns the result document and the
// server's record of the request. Anything but a 200 carrying a result is
// an error.
func (c *client) post(body []byte) ([]byte, serveRecord, error) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, serveRecord{}, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, serveRecord{}, fmt.Errorf("reading response: %w", err)
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Serve  serveRecord     `json:"serve"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, serveRecord{}, fmt.Errorf("HTTP %d: decoding response: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(env.Result) == 0 {
		return nil, env.Serve, fmt.Errorf("HTTP %d: %s", resp.StatusCode, env.Error)
	}
	return env.Result, env.Serve, nil
}

// warm sends every pool request once, from the given number of concurrent
// clients, checks each answer, and returns the answers. A request whose
// answer failed has a nil entry and an error in errs.
func warm(c *client, pool []request, clients int) (answers [][]byte, errs []error) {
	answers = make([][]byte, len(pool))
	perr := make([]error, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pool); i = int(next.Add(1) - 1) {
				doc, _, err := c.post(pool[i].body)
				if err == nil {
					err = check(&pool[i], doc)
				}
				if err != nil {
					perr[i] = fmt.Errorf("request %d: %w", i, err)
					continue
				}
				answers[i] = doc
			}
		}()
	}
	wg.Wait()
	for _, err := range perr {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return answers, errs
}

// drive runs the measurement window over the requests of order, in turn.
// In a closed loop each of w.clients clients sends its next request as
// soon as its previous one is answered, so a request is due when it is
// sent. In an open loop the requests fall due at the arrival times of a
// Poisson process of w.rate per second drawn from rng, whether or not
// earlier ones have been answered; w.clients senders take them in turn,
// and latency counts from when a request was due, so the wait a stall
// imposes on the requests behind it is measured. ratsd is deterministic,
// so every answer must equal the checked warm-up answer to the same
// request. Requests due before the window closes are waited for and
// counted.
func drive(c *client, pool []request, answers [][]byte, order []int, w workload, rng *rand.Rand, window time.Duration) (samples []sample, errs []error) {
	var arrivals []time.Duration
	for t := time.Duration(0); w.rate > 0; {
		t += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if t >= window {
			break
		}
		arrivals = append(arrivals, t)
	}
	per := make([][]sample, w.clients)
	perr := make([][]error, w.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				due := time.Now()
				if w.rate > 0 {
					if n >= len(arrivals) {
						return
					}
					due = t0.Add(arrivals[n])
					time.Sleep(time.Until(due))
				} else if due.Sub(t0) >= window {
					return
				}
				i := order[n%len(order)]
				sent := time.Now()
				doc, rec, err := c.post(pool[i].body)
				lat := time.Since(due)
				if err == nil && !bytes.Equal(doc, answers[i]) {
					err = fmt.Errorf("request %d: answer differs from its first answer", i)
				}
				if err != nil {
					perr[k] = append(perr[k], err)
					continue
				}
				per[k] = append(per[k], sample{client: k, req: i, start: due.Sub(t0), lag: sent.Sub(due), latency: lat, serve: rec})
			}
		}(k)
	}
	wg.Wait()
	for k := range per {
		samples = append(samples, per[k]...)
		errs = append(errs, perr[k]...)
	}
	return samples, errs
}
