// Package serve implements ratsd: a long-running HTTP+JSON scheduling
// service over the rats facade. Accepted requests run in arrival order on
// a fixed number of executor slots, each as soon as a slot is free, with a
// scheduler context reused from a per-cluster pool, so the per-request
// cost converges to the marginal cost of one mapping run. The service
// sheds load past a bounded queue, honors per-request deadlines, answers
// a panicking request with 500 without losing the others, drains
// gracefully, and reports a flat per-request timing record through
// /metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/rats"
)

const (
	statusOK      = http.StatusOK
	statusTimeout = http.StatusGatewayTimeout
)

// ClusterSpec is the wire form of rats.ClusterSpec for requests that
// target a custom cluster instead of a preset one.
type ClusterSpec struct {
	Name            string  `json:"name,omitempty"`
	Procs           int     `json:"procs"`
	SpeedGFlops     float64 `json:"speed_gflops"`
	LinkLatency     float64 `json:"link_latency,omitempty"`
	LinkBandwidth   float64 `json:"link_bandwidth,omitempty"`
	CabinetSize     int     `json:"cabinet_size,omitempty"`
	UplinkLatency   float64 `json:"uplink_latency,omitempty"`
	UplinkBandwidth float64 `json:"uplink_bandwidth,omitempty"`
	WMax            float64 `json:"wmax,omitempty"`

	// Heterogeneity vectors, validated by rats.NewCluster (length,
	// positivity, finiteness) — a malformed vector is a 400, never a
	// panic. JSON cannot carry NaN/±Inf literals, but a proxy-free client
	// can still send 0 or negative entries.
	NodeSpeeds       []float64 `json:"node_speeds,omitempty"`       // per-node GFlop/s, len == procs
	NodeBandwidths   []float64 `json:"node_bandwidths,omitempty"`   // per-node private-link B/s, len == procs
	UplinkBandwidths []float64 `json:"uplink_bandwidths,omitempty"` // per-cabinet uplink B/s, len == cabinets
}

// ScheduleRequest is the POST /v1/schedule body. Every field but dag is
// optional; omitted fields select the library defaults, and pointer
// fields distinguish "absent" from a legitimate zero. Unknown fields are
// ignored, among them the retired alignment, profile and flow_solver.
type ScheduleRequest struct {
	Cluster     string       `json:"cluster,omitempty"`      // preset name; default grillon
	ClusterSpec *ClusterSpec `json:"cluster_spec,omitempty"` // custom cluster; overrides Cluster
	Strategy    string       `json:"strategy,omitempty"`
	Allocator   string       `json:"allocator,omitempty"`
	MinDelta    *float64     `json:"min_delta,omitempty"`
	MaxDelta    *float64     `json:"max_delta,omitempty"`
	MinRho      *float64     `json:"min_rho,omitempty"`
	Packing     *bool        `json:"packing,omitempty"`
	TimeoutMs   int          `json:"timeout_ms,omitempty"` // per-request deadline; default ServerConfig.DefaultTimeout

	DAG json.RawMessage `json:"dag"` // rats.DAG wire format (MarshalJSON schema)
}

// ScheduleResponse is the /v1/schedule response envelope. Result is the
// versioned rats wire document (schema rats.result/v1); Serve is the
// service-side timing record for this request. The two are deliberately
// separate fields rather than an embedded Result, whose MarshalJSON would
// otherwise swallow the envelope.
type ScheduleResponse struct {
	Result json.RawMessage `json:"result,omitempty"`
	Serve  RequestMetrics  `json:"serve"`
	Error  string          `json:"error,omitempty"`
}

// requestSpec is a parsed, validated scheduling configuration plus the
// key its cluster's contexts are pooled under.
type requestSpec struct {
	cluster   *rats.Cluster
	strategy  rats.Strategy
	allocator rats.Allocator

	minDelta, maxDelta float64
	hasDelta           bool
	minRho             float64
	hasRho             bool
	packing            *bool

	clusterKey string // context-pool key: cluster identity only
}

// maxTimeoutMs is the longest timeout_ms a time.Duration can hold.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

func parseSpec(req *ScheduleRequest) (*requestSpec, error) {
	sp := &requestSpec{}
	switch {
	case req.ClusterSpec != nil:
		c, err := rats.NewCluster(rats.ClusterSpec{
			Name:             req.ClusterSpec.Name,
			Procs:            req.ClusterSpec.Procs,
			SpeedGFlops:      req.ClusterSpec.SpeedGFlops,
			LinkLatency:      req.ClusterSpec.LinkLatency,
			LinkBandwidth:    req.ClusterSpec.LinkBandwidth,
			CabinetSize:      req.ClusterSpec.CabinetSize,
			UplinkLatency:    req.ClusterSpec.UplinkLatency,
			UplinkBandwidth:  req.ClusterSpec.UplinkBandwidth,
			WMax:             req.ClusterSpec.WMax,
			NodeSpeeds:       req.ClusterSpec.NodeSpeeds,
			NodeBandwidths:   req.ClusterSpec.NodeBandwidths,
			UplinkBandwidths: req.ClusterSpec.UplinkBandwidths,
		})
		if err != nil {
			return nil, err
		}
		sp.cluster = c
		// Two custom clusters share pooled contexts only when every
		// physical parameter matches, so the key is the full spec, not
		// the name.
		sp.clusterKey = fmt.Sprintf("custom:%+v", *req.ClusterSpec)
	case req.Cluster != "":
		c, err := rats.ClusterByName(req.Cluster)
		if err != nil {
			return nil, err
		}
		sp.cluster = c
		sp.clusterKey = "preset:" + c.Name()
	default:
		sp.cluster = rats.Grillon()
		sp.clusterKey = "preset:" + sp.cluster.Name()
	}

	var err error
	if req.Strategy != "" {
		if sp.strategy, err = rats.ParseStrategy(req.Strategy); err != nil {
			return nil, err
		}
	}
	if req.Allocator != "" {
		if sp.allocator, err = rats.ParseAllocator(req.Allocator); err != nil {
			return nil, err
		}
	}
	if req.MinDelta != nil || req.MaxDelta != nil {
		if req.MinDelta == nil || req.MaxDelta == nil {
			return nil, fmt.Errorf("serve: min_delta and max_delta must be set together")
		}
		sp.minDelta, sp.maxDelta, sp.hasDelta = *req.MinDelta, *req.MaxDelta, true
	}
	if req.MinRho != nil {
		sp.minRho, sp.hasRho = *req.MinRho, true
	}
	sp.packing = req.Packing
	// A longer deadline would overflow time.Duration and wrap around to
	// one that has already passed.
	if int64(req.TimeoutMs) > maxTimeoutMs {
		return nil, fmt.Errorf("serve: timeout_ms = %d exceeds %d", req.TimeoutMs, maxTimeoutMs)
	}
	return sp, nil
}

// options expands the spec into the rats functional options.
func (sp *requestSpec) options() []rats.Option {
	opts := []rats.Option{
		rats.WithCluster(sp.cluster),
		rats.WithStrategy(sp.strategy),
		rats.WithAllocator(sp.allocator),
	}
	if sp.hasDelta {
		opts = append(opts, rats.WithDeltaBounds(sp.minDelta, sp.maxDelta))
	}
	if sp.hasRho {
		opts = append(opts, rats.WithMinRho(sp.minRho))
	}
	if sp.packing != nil {
		opts = append(opts, rats.WithPacking(*sp.packing))
	}
	return opts
}

// ServerConfig configures a Server. Zero values select the defaults
// noted per field.
type ServerConfig struct {
	// MaxQueue bounds the number of accepted-but-unfinished requests;
	// beyond it a request is shed with 429 (default 1024).
	MaxQueue int
	// Workers is the number of requests run at once (default
	// GOMAXPROCS).
	Workers int
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (default
	// off). Opt-in because profiles expose internals a scheduling service
	// should not serve on an unrestricted port by default.
	EnablePprof bool
	// Log receives structured service logs (default slog.Default()).
	Log *slog.Logger
}

// Server is the ratsd service core: the HTTP handlers, the dispatcher,
// the context pool and the metrics collector. Create with NewServer, expose
// via Handler, shut down with Drain.
type Server struct {
	cfg        ServerConfig
	log        *slog.Logger
	dispatcher *dispatcher
	pool       ctxPool
	metrics    *Collector
	draining   atomic.Bool
}

// NewServer assembles a Server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	s := &Server{cfg: cfg, log: cfg.Log, metrics: NewCollector()}
	s.dispatcher = newDispatcher(cfg.MaxQueue, cfg.Workers, s.runJob)
	s.log.Info("ratsd serving", "max_queue", cfg.MaxQueue, "workers", cfg.Workers)
	return s
}

// Drain stops intake (new requests get 503) and blocks until every
// already-accepted request has been executed and answered.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.log.Info("ratsd draining", "queued", s.dispatcher.Queued())
	s.dispatcher.Drain()
	s.log.Info("ratsd drained")
}

// Handler returns the service's HTTP routes: POST /v1/schedule,
// GET /healthz, GET /metrics (JSON by default; Prometheus text with
// ?format=prometheus or an Accept: text/plain header), and — when
// ServerConfig.EnablePprof is set — the net/http/pprof profiles under
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the response envelope for a request that failed before
// (or instead of) producing a result.
func (s *Server) writeError(w http.ResponseWriter, m RequestMetrics, err error) {
	m.Error = err.Error()
	writeJSON(w, m.Status, ScheduleResponse{Serve: m, Error: m.Error})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := s.metrics.NextID()
	m := RequestMetrics{ID: id}
	enq := time.Now()

	var req ScheduleRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		m.Status = http.StatusBadRequest
		s.writeError(w, m, fmt.Errorf("decoding request: %w", err))
		return
	}
	spec, err := parseSpec(&req)
	if err != nil {
		m.Status = http.StatusBadRequest
		s.writeError(w, m, err)
		return
	}
	m.Cluster = spec.cluster.Name()
	m.Strategy = spec.strategy.String()
	m.Allocator = spec.allocator.String()

	if len(req.DAG) == 0 {
		m.Status = http.StatusBadRequest
		s.writeError(w, m, fmt.Errorf("request misses the dag field"))
		return
	}
	d := rats.NewDAG()
	if err := json.Unmarshal(req.DAG, d); err != nil {
		m.Status = http.StatusBadRequest
		s.writeError(w, m, fmt.Errorf("decoding dag: %w", err))
		return
	}
	if err := d.Build(); err != nil {
		m.Status = http.StatusUnprocessableEntity
		s.writeError(w, m, err)
		return
	}
	m.Tasks = d.TaskCount()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	m.DecodeMs = ms(time.Since(enq))
	j := &job{spec: spec, dag: d, m: m, ctx: ctx, enq: enq}
	// An accepted job is run and answered even through a drain or a
	// panic, so Do's result is the request's single outcome.
	jr, err := s.dispatcher.Do(j, s.metrics.Accepted)
	if err != nil {
		switch err {
		case ErrOverloaded:
			s.metrics.Shed()
			m.Status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
			s.log.Warn("request shed", "id", id, "queued", s.dispatcher.Queued())
		case ErrDraining:
			m.Status = http.StatusServiceUnavailable
		default:
			m.Status = http.StatusInternalServerError
		}
		s.writeError(w, m, err)
		return
	}
	var blob []byte
	if jr.result != nil {
		if blob, err = json.Marshal(jr.result); err != nil {
			jr.metrics.Status = http.StatusInternalServerError
			jr.metrics.Error = err.Error()
		}
	}
	s.record(jr)
	if jr.metrics.Status != statusOK {
		s.writeError(w, jr.metrics, errors.New(jr.metrics.Error))
		return
	}
	writeJSON(w, statusOK, ScheduleResponse{Result: blob, Serve: jr.metrics})
}

// record files an executed request's outcome with the collector and the
// log.
func (s *Server) record(jr jobResult) {
	m := jr.metrics
	s.metrics.Record(m)
	switch {
	case jr.stack != nil:
		s.metrics.Panicked()
		s.log.Error("request panicked", "id", m.ID, "error", m.Error, "stack", string(jr.stack))
	case m.Status != statusOK:
		s.log.Warn("request failed", "id", m.ID, "status", m.Status, "error", m.Error)
	default:
		s.log.Debug("scheduled", "id", m.ID, "cluster", m.Cluster,
			"strategy", m.Strategy, "tasks", m.Tasks, "total_ms", m.TotalMs)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, text := http.StatusOK, "serving"
	if s.draining.Load() {
		status, text = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status": text,
		"queued": s.dispatcher.Queued(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Prometheus scrapers ask via ?format=prometheus or an explicit
	// text/plain Accept; everything else (curl's */*, browsers, the JSON
	// dashboard) keeps the established JSON document.
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	if format == "prometheus" || (format == "" && strings.HasPrefix(accept, "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// runJob executes one job with its own Scheduler and a context from its
// cluster's pool, filling in the job's timing record. The rats facade
// makes a Scheduler cheap to build; the context is what repeat requests
// reuse.
func (s *Server) runJob(j *job) jobResult {
	if j.ctx.Err() != nil {
		// The deadline passed while the job sat in the queue: don't
		// burn scheduler time on an answer nobody is waiting for.
		return timedOut(j)
	}
	m := &j.m
	m.QueueWaitMs = ms(time.Since(j.enq))
	answer := func(res *rats.Result, status int, err error) jobResult {
		m.Status = status
		if err != nil {
			m.Error = err.Error()
		}
		m.TotalMs = ms(time.Since(j.enq))
		return jobResult{result: res, metrics: *m}
	}
	cctx, err := s.pool.get(j.spec.clusterKey, j.spec.cluster)
	if err != nil {
		return answer(nil, http.StatusInternalServerError, err)
	}
	// A run that panics never returns its context to the pool: its
	// scratch state is not known to be consistent.
	res, err := rats.New(j.spec.options()...).ScheduleIn(cctx, j.dag)
	s.pool.put(j.spec.clusterKey, cctx)
	if err != nil {
		return answer(nil, http.StatusUnprocessableEntity, err)
	}
	m.AllocMs = ms(res.Phases.Alloc)
	m.MapMs = ms(res.Phases.Map)
	m.SimMs = ms(res.Phases.Sim)
	m.Counters = res.Counters
	return answer(res, statusOK, nil)
}
