package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/rats"
)

// FuzzScheduleRequest drives arbitrary request bodies through the
// /v1/schedule handler. The handler must never panic; a 5xx is only
// acceptable as a 504 for a request whose own deadline really passed; and every
// 200 must carry a result document that passes rats.DecodeResult with one
// placement per task of the request's DAG.
func FuzzScheduleRequest(f *testing.F) {
	fft, err := json.Marshal(rats.FFT(4, 1))
	if err != nil {
		f.Fatal(err)
	}
	withDAG := func(fields string) []byte {
		return []byte(`{` + fields + `"dag":` + string(fft) + `}`)
	}
	for _, seed := range [][]byte{
		withDAG(``),
		withDAG(`"cluster":"grelon","strategy":"time-cost",`),
		withDAG(`"cluster_spec":{"procs":1073741824,"speed_gflops":1},`),
		withDAG(`"cluster_spec":{"procs":6,"speed_gflops":2,"cabinet_size":2},"strategy":"delta",`),
		withDAG(`"timeout_ms":10000000000000,`),
		withDAG(`"alignment":"none","profile":"reference","flow_solver":"maxmin",`),
		withDAG(`"alignment":7,"profile":"bogus",`),
		withDAG(`"min_delta":-0.5,"max_delta":0.5,"min_rho":0.7,"packing":false,`),
		[]byte(`{"dag":{"graph":{"tasks":[{"ID":3,"Name":"a","M":1,"A":1,"Alpha":0}]}}}`),
		[]byte(`{"cluster":"nope","dag":{"graph":{}}}`),
		[]byte(`{`),
		[]byte(`null`),
	} {
		f.Add(seed)
	}

	s := NewServer(ServerConfig{Workers: 1, Log: quietLog()})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		elapsed := time.Since(start)

		var req ScheduleRequest
		wellFormed := json.Unmarshal(body, &req) == nil
		switch code := rec.Code; {
		case code == http.StatusGatewayTimeout && wellFormed && req.TimeoutMs > 0 &&
			elapsed.Milliseconds() >= int64(req.TimeoutMs):
			return // the request's own deadline expired
		case code >= 500:
			t.Fatalf("HTTP %d for body %q: %s", code, body, rec.Body)
		case code != http.StatusOK:
			return
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		res, err := rats.DecodeResult(sr.Result)
		if err != nil {
			t.Fatalf("200 result fails DecodeResult: %v", err)
		}
		d := rats.NewDAG()
		if err := json.Unmarshal(req.DAG, d); err != nil {
			t.Fatalf("200 for a DAG that does not decode: %v", err)
		}
		if len(res.Placements) != d.TaskCount() {
			t.Fatalf("%d placements for %d tasks", len(res.Placements), d.TaskCount())
		}
		seen := map[int]bool{}
		for _, p := range res.Placements {
			if seen[p.Task] || len(p.Procs) == 0 {
				t.Fatalf("placement %+v repeats a task or has no processors", p)
			}
			seen[p.Task] = true
		}
	})
}
