// Command ratsd is the scheduling service: a long-running HTTP+JSON
// daemon over the rats pipeline. Accepted requests run in arrival order,
// at most -workers at a time, each as soon as a slot is free, with
// scheduler contexts reused from a per-cluster pool, so sustained request
// streams pay the marginal cost of one mapping run, not the setup cost of
// a fresh scheduler.
//
// Usage:
//
//	ratsd [-addr :8080] [-max-queue 1024] [-workers N] [-timeout 30s]
//	      [-profile fast] [-log-level info] [-pprof]
//
// -profile sets the default speed profile ("fast" or "reference") for
// requests that do not carry their own "profile" field; per-request
// values always win. Each request is mapped serially; -workers is the
// only parallelism knob. A DAG that fails validation (its structure, or
// task and edge values outside the cost model) is answered 422.
//
// Endpoints:
//
//	POST /v1/schedule  schedule one DAG; see internal/serve.ScheduleRequest
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      counters, latency quantiles, recent request records
//	                   (JSON by default; ?format=prometheus or an Accept
//	                   header preferring text/plain selects the Prometheus
//	                   text exposition)
//	GET  /debug/pprof  live profiling, only with -pprof
//
// SIGINT/SIGTERM starts a graceful drain: intake stops with 503, every
// already-accepted request is executed and answered, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/rats"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxQueue := flag.Int("max-queue", 1024, "shed load beyond this many queued requests")
	workers := flag.Int("workers", 0, "requests run at once (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	profileName := flag.String("profile", "fast", "default speed profile for requests without one: fast or reference")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ratsd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	profile, err := rats.ParseProfile(*profileName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ratsd: bad -profile: %v\n", err)
		os.Exit(2)
	}

	srv := serve.NewServer(serve.ServerConfig{
		MaxQueue:       *maxQueue,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		Profile:        profile,
		EnablePprof:    *pprof,
		Log:            log,
	})
	if *pprof {
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Info("ratsd shutting down", "signal", sig.String())
		// Stop intake first (new connections refused, in-flight handlers
		// keep running), then drain the queue so every accepted request
		// is answered before the process exits.
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Drain()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Error("shutdown", "error", err)
		}
	}()

	log.Info("ratsd listening", "addr", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve", "error", err)
		os.Exit(1)
	}
	<-done
}
