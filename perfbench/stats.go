package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates the q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// slice is the length of the parts the window is cut into. Each
// end-to-end figure is the median of its per-slice values, so a burst of
// noise from other tenants of the machine moves a slice, not the figure.
const slice = 5 * time.Second

func endToEnd(samples []sample, window time.Duration, setup float64) map[string]metric {
	n := max(1, int(window/slice))
	width := window / time.Duration(n)
	lat := make([][]float64, n)
	for _, s := range samples {
		i := min(int(s.start/width), n-1)
		lat[i] = append(lat[i], ms(s.latency))
	}
	var p50, p90, tput []float64
	for _, l := range lat {
		tput = append(tput, float64(len(l))/width.Seconds())
		if len(l) > 0 {
			sort.Float64s(l)
			p50 = append(p50, quantile(l, 0.5))
			p90 = append(p90, quantile(l, 0.9))
		}
	}
	return map[string]metric{
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p90_ms": {median(p90), "ms"},
		"throughput":     {median(tput), "1/s"},
		"setup_s":        {setup, "s"},
	}
}

// lateness returns, in milliseconds, how long after they fell due the
// requests were sent, on average and at most: in an open loop, how far
// the generator fell behind its schedule.
func lateness(samples []sample) (mean, worst float64) {
	for _, s := range samples {
		mean += ms(s.lag)
		worst = max(worst, ms(s.lag))
	}
	return mean / float64(len(samples)), worst
}

// layerNames are the layers a request passes, in order. send_lag is the
// time a request waited in the client for a free sender after it fell
// due. queue_wait is ratsd's own figure, whose clock starts before the
// request is decoded, so it holds decoding and validation as well as
// batching and queueing. assemble is building the result from the replay
// (the server's total less its queue wait and pipeline phases). respond is
// everything the client saw beyond the server's total: marshalling the
// result with its statistics, encoding, and both HTTP transfers.
var layerNames = [...]string{"send_lag", "queue_wait", "alloc", "map", "replay", "assemble", "respond"}

// split returns a request's time in each layer, in milliseconds.
func split(s sample) [len(layerNames)]float64 {
	r := s.serve
	return [...]float64{
		ms(s.lag),
		r.QueueWaitMs,
		r.AllocMs,
		r.MapMs,
		r.SimMs,
		r.TotalMs - r.QueueWaitMs - r.AllocMs - r.MapMs - r.SimMs,
		ms(s.latency) - ms(s.lag) - r.TotalMs,
	}
}

// perLayer reports the mean time a request spent in each layer, the mean
// batch it ran in, and engine counters per request or as hit ratios.
func perLayer(samples []sample) map[string]metric {
	n := float64(len(samples))
	var layers [len(layerNames)]float64
	var batch float64
	c := map[string]float64{}
	for _, s := range samples {
		for i, d := range split(s) {
			layers[i] += d
		}
		batch += float64(s.serve.BatchSize)
		for k, v := range s.serve.Counters {
			c[k] += v
		}
	}
	m := map[string]metric{
		"batch_size":          {batch / n, "count"},
		"alloc_grants":        {c["alloc_grants"] / n, "count"},
		"cand_evals":          {c["cand_evals"] / n, "count"},
		"memo_hit_ratio":      {ratio(c["memo_hits"], c["memo_probes"]), "ratio"},
		"flow_solves":         {(c["solves_full"] + c["solves_incremental"] + c["solves_scratch"]) / n, "count"},
		"scratch_solve_ratio": {ratio(c["solves_scratch"], c["solves_full"]+c["solves_incremental"]+c["solves_scratch"]), "ratio"},
		"flows":               {c["flow_batch_flows"] / n, "count"},
	}
	for i, name := range layerNames {
		m[name+"_ms"] = metric{layers[i] / n, "ms"}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceRequests caps the requests written to a trace, keeping the file a
// few megabytes on the cheapest workload.
const traceRequests = 2000

// writeTrace writes the window's first requests as a Chrome trace
// (chrome://tracing, Perfetto): each request is a span on its sender's
// row, from when it fell due, with one child span per layer laid end to
// end in the order the request passes them. Child start times are rebuilt
// from the layer durations.
func writeTrace(path string, samples []sample) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	if len(s) > traceRequests {
		s = s[:traceRequests]
	}
	var evs []event
	for id, r := range s {
		args := map[string]int{"request": id, "pool_index": r.req, "batch_size": r.serve.BatchSize}
		ts := float64(r.start) / 1e3
		evs = append(evs, event{"request", "X", ts, float64(r.latency) / 1e3, 1, r.client, args})
		for i, d := range split(r) {
			evs = append(evs, event{layerNames[i], "X", ts, d * 1e3, 1, r.client, args})
			ts += d * 1e3
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
