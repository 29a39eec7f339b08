package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rats"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietLog()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newHookedServer is newTestServer with the dispatcher's run function
// wrapped, so a test can hold or break a job at execution time. The
// dispatcher is swapped before the HTTP server starts, so no request can
// reach the original one.
func newHookedServer(t *testing.T, cfg ServerConfig,
	wrap func(j *job, run func(*job) jobResult) jobResult) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietLog()
	}
	s := NewServer(cfg)
	s.dispatcher.Drain()
	s.dispatcher = newDispatcher(s.cfg.MaxQueue, s.cfg.Workers,
		func(j *job) jobResult { return wrap(j, s.runJob) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func scheduleBody(t *testing.T, d *rats.DAG, fields map[string]any) []byte {
	t.Helper()
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"dag": json.RawMessage(blob)}
	for k, v := range fields {
		req[k] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSchedule(t *testing.T, url string, body []byte) (*http.Response, ScheduleResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp, sr
}

// TestServedResultMatchesLibrary is the end-to-end equivalence pin: the
// result document a ratsd response carries must be byte-identical to what
// the library's per-request Schedule produces for the same inputs — the
// queueing, pooling and context reuse may not change a single byte.
func TestServedResultMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})

	cases := []struct {
		dag    *rats.DAG
		libOpt []rats.Option
		fields map[string]any
	}{
		{rats.FFT(16, 1),
			[]rats.Option{rats.WithCluster(rats.Grelon()), rats.WithStrategy(rats.TimeCost)},
			map[string]any{"cluster": "grelon", "strategy": "time-cost"}},
		{rats.Strassen(7),
			[]rats.Option{rats.WithCluster(rats.Chti()), rats.WithStrategy(rats.Delta), rats.WithAllocator(rats.CPA)},
			map[string]any{"cluster": "chti", "strategy": "delta", "allocator": "cpa"}},
		{rats.Random(rats.RandomSpec{N: 30, Width: 0.5, Density: 0.4, Regularity: 0.7, Seed: 3, Layered: true}),
			[]rats.Option{rats.WithCluster(rats.Big512()), rats.WithStrategy(rats.TimeCost), rats.WithMinRho(0.7)},
			map[string]any{"cluster": "big512", "strategy": "time-cost", "min_rho": 0.7}},
	}
	for i, tc := range cases {
		want, err := rats.New(tc.libOpt...).Schedule(tc.dag)
		if err != nil {
			t.Fatal(err)
		}
		wantBlob, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		resp, sr := postSchedule(t, ts.URL, scheduleBody(t, tc.dag, tc.fields))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: HTTP %d: %s", i, resp.StatusCode, sr.Error)
		}
		if string(sr.Result) != string(wantBlob) {
			t.Fatalf("case %d: served result diverges from library:\n%s\nvs\n%s",
				i, sr.Result, wantBlob)
		}
		if sr.Serve.TotalMs <= 0 || sr.Serve.DecodeMs <= 0 || sr.Serve.QueueWaitMs < sr.Serve.DecodeMs ||
			sr.Serve.Tasks != tc.dag.TaskCount() {
			t.Fatalf("case %d: serve metrics malformed: %+v", i, sr.Serve)
		}
		// The carried document passes the versioned decode.
		if _, err := rats.DecodeResult(sr.Result); err != nil {
			t.Fatalf("case %d: served result fails DecodeResult: %v", i, err)
		}
	}
}

// TestServedBatchSharesContext pushes many concurrent requests through
// the server — mixing clusters, strategies and allocators in flight at
// once, some requests carrying the ignored profile and alignment fields —
// and verifies each response equals the
// library result for its own configuration. Under -race this also proves
// the per-request schedulers and the shared context pool are
// data-race-free.
func TestServedBatchSharesContext(t *testing.T) {
	const workers = 2
	s, ts := newTestServer(t, ServerConfig{Workers: workers})

	lab, err := rats.NewCluster(rats.ClusterSpec{Name: "lab", Procs: 24, SpeedGFlops: 5})
	if err != nil {
		t.Fatal(err)
	}
	grelonTC := []rats.Option{rats.WithCluster(rats.Grelon()), rats.WithStrategy(rats.TimeCost)}
	configs := []struct {
		fields map[string]any
		libOpt []rats.Option
	}{
		{map[string]any{"cluster": "grelon", "strategy": "time-cost"}, grelonTC},
		{map[string]any{"cluster": "grelon", "strategy": "time-cost", "profile": "reference"}, grelonTC},
		{map[string]any{"cluster": "grelon", "strategy": "delta", "profile": "reference",
			"alignment": "greedy"},
			[]rats.Option{rats.WithCluster(rats.Grelon()), rats.WithStrategy(rats.Delta)}},
		{map[string]any{"cluster": "chti", "strategy": "delta", "allocator": "cpa"},
			[]rats.Option{rats.WithCluster(rats.Chti()), rats.WithStrategy(rats.Delta), rats.WithAllocator(rats.CPA)}},
		{map[string]any{"cluster_spec": map[string]any{"name": "lab", "procs": 24, "speed_gflops": 5},
			"strategy": "time-cost"},
			[]rats.Option{rats.WithCluster(lab), rats.WithStrategy(rats.TimeCost)}},
	}
	const clusters = 3 // grelon, chti, lab

	const n = 36
	dags := make([]*rats.DAG, n)
	want := make([][]byte, n)
	for i := range dags {
		dags[i] = rats.Random(rats.RandomSpec{
			N: 20 + i%3, Width: 0.6, Density: 0.5, Regularity: 0.8, Seed: int64(i), Layered: i%2 == 0,
		})
		r, err := rats.New(configs[i%len(configs)].libOpt...).Schedule(dags[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(r)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := scheduleBody(t, dags[i], configs[i%len(configs)].fields)
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var sr ScheduleResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d: %s", resp.StatusCode, sr.Error)
				return
			}
			if string(sr.Result) != string(want[i]) {
				errs[i] = fmt.Errorf("dag %d: served result diverges", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	snap := s.metrics.Snapshot()
	if snap.Completed != n {
		t.Fatalf("collector counted %d completed, want %d", snap.Completed, n)
	}
	// Each running request holds one context, so the pool never grows
	// past one context per executor slot per cluster.
	if idle := s.pool.idle(); idle < 1 || idle > workers*clusters {
		t.Errorf("pool holds %d idle contexts, want 1..%d", idle, workers*clusters)
	}
}

func TestServeSheddingReturns429(t *testing.T) {
	s, ts := newTestServer(t, ServerConfig{
		MaxQueue: 1, Workers: 1,
	})
	// Flood a single-worker, single-slot queue with expensive requests:
	// while one is being scheduled, later arrivals must be shed.
	body := scheduleBody(t, rats.FFT(64, 1), map[string]any{"cluster": "big512", "strategy": "time-cost"})
	var wg sync.WaitGroup
	codes := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	shed, ok := 0, 0
	for c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		}
	}
	if shed == 0 {
		t.Fatal("16 concurrent requests against MaxQueue=1: none shed with 429")
	}
	if ok == 0 {
		t.Fatal("no request succeeded at all")
	}
	if snap := s.metrics.Snapshot(); snap.Shed == 0 {
		t.Fatal("collector did not count the shed requests")
	}
}

// TestServeDeadlineExpiresInQueue: a request whose deadline passes while
// it waits behind a request holding the only executor slot must come
// back 504 at its deadline, without being scheduled and without waiting
// for the slot.
func TestServeDeadlineExpiresInQueue(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	s, ts := newHookedServer(t, ServerConfig{Workers: 1}, func(j *job, run func(*job) jobResult) jobResult {
		if j.m.ID == 1 {
			close(held)
			<-release
		}
		return run(j)
	})

	type reply struct {
		status int
		sr     ScheduleResponse
	}
	post := func(body []byte, out chan<- reply) {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		var sr ScheduleResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Error(err)
		}
		out <- reply{resp.StatusCode, sr}
	}
	// Request 1 occupies the only executor slot until released; request 2,
	// with a 1 ms deadline, queues behind it.
	d := rats.FFT(8, 1)
	held1, expiring := scheduleBody(t, d, nil), scheduleBody(t, d, map[string]any{"timeout_ms": 1})
	first, second := make(chan reply, 1), make(chan reply, 1)
	go post(held1, first)
	<-held
	go post(expiring, second)
	var r reply
	select {
	case r = <-second:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("expired request still waits for the held slot")
	}
	if q := s.dispatcher.Queued(); q != 1 {
		t.Errorf("Queued() = %d after the expired request left, want 1 (the held request)", q)
	}
	close(release)
	if r := <-first; r.status != http.StatusOK {
		t.Fatalf("held request: HTTP %d (%s), want 200", r.status, r.sr.Error)
	}
	sr := r.sr
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d (%s), want 504", r.status, sr.Error)
	}
	if sr.Result != nil {
		t.Fatal("expired request still carries a result")
	}
	if sr.Serve.QueueWaitMs <= 0 {
		t.Fatalf("expired request reports no queue wait: %+v", sr.Serve)
	}
}

// TestServePanicAnswers500: a pipeline panic answers its own request with
// 500 and the panic's message, is counted as panicked (and failed), and
// the service keeps serving.
func TestServePanicAnswers500(t *testing.T) {
	s, ts := newHookedServer(t, ServerConfig{Workers: 1}, func(j *job, run func(*job) jobResult) jobResult {
		if j.m.ID == 1 {
			panic("pipeline exploded")
		}
		return run(j)
	})
	body := scheduleBody(t, rats.FFT(8, 1), nil)
	resp, sr := postSchedule(t, ts.URL, body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(sr.Error, "pipeline exploded") {
		t.Fatalf("HTTP %d (%q), want 500 naming the panic", resp.StatusCode, sr.Error)
	}
	if sr.Result != nil {
		t.Fatal("panicked request carries a result")
	}
	if resp, sr := postSchedule(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: HTTP %d (%s), want 200", resp.StatusCode, sr.Error)
	}
	snap := s.metrics.Snapshot()
	if snap.Accepted != 2 || snap.Completed != 1 || snap.Failed != 1 || snap.Panicked != 1 {
		t.Fatalf("counters after one panic and one success: %+v", snap)
	}
}

// TestServeDrainLosesNothing: every request accepted before the drain
// gets a full 200 response; requests after the drain get 503.
func TestServeDrainLosesNothing(t *testing.T) {
	s, ts := newTestServer(t, ServerConfig{})
	body := scheduleBody(t, rats.FFT(16, 2), map[string]any{"cluster": "grelon"})

	const n = 24
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	time.Sleep(2 * time.Millisecond) // let requests reach the queue
	s.Drain()
	wg.Wait()
	close(codes)

	for c := range codes {
		// Accepted → 200. Refused at the drain boundary → 503. Nothing in
		// between: no hung connection, no dropped accepted request.
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Fatalf("request finished with %d, want 200 or 503", c)
		}
	}
	snap := s.metrics.Snapshot()
	if snap.Accepted != snap.Completed {
		t.Fatalf("drain lost requests: accepted %d, completed %d", snap.Accepted, snap.Completed)
	}

	// healthz reflects the drained state.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestServeRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	oneTask := `"dag":{"graph":{"tasks":[{"ID":0,"Name":"a","M":4e6,"A":64,"Alpha":0.1}]}}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", `{`, http.StatusBadRequest},
		{"no dag", `{"cluster":"grelon"}`, http.StatusBadRequest},
		{"bad cluster", `{"cluster":"nope","dag":{"graph":{}}}`, http.StatusBadRequest},
		{"bad strategy", `{"strategy":"nope","dag":{"graph":{}}}`, http.StatusBadRequest},
		{"dag missing graph", `{"dag":{"name":"x"}}`, http.StatusBadRequest},
		// procs past platform.MaxProcs: the mapper would size its scratch
		// to 2³⁰ processors and crash the process out of memory.
		{"procs past limit", `{"cluster_spec":{"procs":1073741824,"speed_gflops":1},` + oneTask + `}`, http.StatusBadRequest},
		// A timeout too long for time.Duration used to wrap around to a
		// deadline that had already passed (504).
		{"timeout overflows", `{"timeout_ms":10000000000000,` + oneTask + `}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, sr := postSchedule(t, ts.URL, []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("HTTP %d, want %d (error %q)", resp.StatusCode, tc.want, sr.Error)
			}
			if sr.Error == "" {
				t.Fatal("error response carries no error message")
			}
		})
	}

	// Method check.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestServeRejectsOutOfModelDAG: a decoded DAG passes the same cost-value
// checks as a built one, so task and edge values outside the §II-A model
// are answered 422 instead of being scheduled.
func TestServeRejectsOutOfModelDAG(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	chain := func(m, alpha, bytes float64) []byte {
		return []byte(fmt.Sprintf(`{"cluster":"chti","dag":{"graph":{"tasks":[`+
			`{"ID":0,"Name":"a","M":4e6,"A":64,"Alpha":0.1},`+
			`{"ID":1,"Name":"b","M":%g,"A":64,"Alpha":%g}],`+
			`"edges":[{"From":0,"To":1,"Bytes":%g}]}}}`, m, alpha, bytes))
	}
	if resp, sr := postSchedule(t, ts.URL, chain(4e6, 0.1, 4e6)); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-model chain: HTTP %d (%s), want 200", resp.StatusCode, sr.Error)
	}
	// FFT(4) with two tasks claiming the same ID.
	fft, err := json.Marshal(rats.FFT(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	dupIDs := strings.Replace(strings.Replace(string(fft), `"ID":1,`, `"ID":5,`, 1), `"ID":2,`, `"ID":5,`, 1)
	for _, tc := range []struct {
		name  string
		body  []byte
		error string
	}{
		{"alpha 1.5", chain(4e6, 1.5, 4e6), "serial fraction"},
		{"alpha -3", chain(4e6, -3, 4e6), "serial fraction"},
		{"negative elements", chain(-4e6, 0.1, 4e6), "positive elements"},
		{"work overflows", chain(1e308, 0.1, 4e6), "finite work"},
		{"negative edge bytes", chain(4e6, 0.1, -5e6), "negative payload"},
		{"duplicate task IDs", []byte(`{"cluster":"chti","dag":` + dupIDs + `}`), "does not match its position"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, sr := postSchedule(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("HTTP %d, want 422 (error %q)", resp.StatusCode, sr.Error)
			}
			if !strings.Contains(sr.Error, tc.error) {
				t.Fatalf("error %q does not name %q", sr.Error, tc.error)
			}
		})
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	body := scheduleBody(t, rats.Strassen(1), map[string]any{"cluster": "chti"})
	if resp, sr := postSchedule(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule failed: HTTP %d %s", resp.StatusCode, sr.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != 1 || snap.Accepted != 1 {
		t.Fatalf("snapshot counts wrong: %+v", snap)
	}
	if snap.LatencyP50Ms <= 0 || snap.SchedulesPerSecond <= 0 {
		t.Fatalf("latency/throughput not derived: %+v", snap)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Status != http.StatusOK {
		t.Fatalf("recent ring wrong: %+v", snap.Recent)
	}
}

// TestServeCustomClusterSpec drives a request with an inline cluster
// description and checks it matches the library on the same custom
// cluster.
func TestServeCustomClusterSpec(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	spec := rats.ClusterSpec{Name: "lab", Procs: 24, SpeedGFlops: 5}
	cl, err := rats.NewCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rats.New(rats.WithCluster(cl)).Schedule(rats.FFT(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, _ := json.Marshal(want)

	body := scheduleBody(t, rats.FFT(8, 9), map[string]any{
		"cluster_spec": map[string]any{"name": "lab", "procs": 24, "speed_gflops": 5},
	})
	resp, sr := postSchedule(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, sr.Error)
	}
	if string(sr.Result) != string(wantBlob) {
		t.Fatalf("custom-cluster served result diverges:\n%s\nvs\n%s", sr.Result, wantBlob)
	}
}

// TestServeIgnoresDroppedWireField pins wire compatibility for removed
// request fields: map_workers, flow_solver, alignment and profile select
// nothing any more, and unknown request fields are ignored, so a client
// that still sends one gets a 200 byte-equal to the library result,
// whatever the value.
func TestServeIgnoresDroppedWireField(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	d := rats.FFT(16, 5)

	want, err := rats.New(rats.WithCluster(rats.Grelon()), rats.WithStrategy(rats.TimeCost)).Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		field string
		value any
	}{
		{"map_workers", "map_workers", 3},
		{"flow_solver_maxmin", "flow_solver", "maxmin"},
		{"flow_solver_bogus", "flow_solver", "bogus"},
		{"alignment_hungarian", "alignment", "hungarian"},
		{"alignment_none", "alignment", "none"},
		{"alignment_bogus", "alignment", "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, sr := postSchedule(t, ts.URL, scheduleBody(t, d,
				map[string]any{"cluster": "grelon", "strategy": "time-cost", tc.field: tc.value}))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, sr.Error)
			}
			if string(sr.Result) != string(wantBlob) {
				t.Fatalf("served result diverges from library:\n%s\nvs\n%s", sr.Result, wantBlob)
			}
		})
	}
}

// TestServedProfileField pins the retired profile field (once an alias for
// the alignment choice) as ignored: with any value, alone or next to an
// alignment field, a request gets a 200 byte-equal to the library result
// for the same request without it. Values that used to be 400s included.
func TestServedProfileField(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	d := rats.FFT(16, 2)
	want, err := rats.New(rats.WithCluster(rats.Grelon()), rats.WithStrategy(rats.TimeCost)).Schedule(d)
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		fields map[string]any
	}{
		{"absent-defaults-fast", map[string]any{}},
		{"explicit-fast", map[string]any{"profile": "fast"}},
		{"reference", map[string]any{"profile": "reference"}},
		{"reference-with-alignment", map[string]any{"profile": "reference", "alignment": "greedy"}},
		{"unknown-name", map[string]any{"profile": "fastest"}},
		{"wrong-type", map[string]any{"profile": 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fields := map[string]any{"cluster": "grelon", "strategy": "time-cost"}
			for k, v := range tc.fields {
				fields[k] = v
			}
			resp, sr := postSchedule(t, ts.URL, scheduleBody(t, d, fields))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, sr.Error)
			}
			if string(sr.Result) != string(wantBlob) {
				t.Fatalf("served result diverges from library:\n%s\nvs\n%s", sr.Result, wantBlob)
			}
		})
	}
}
