// Package serve is the simulation-as-a-service layer: a stdlib-only
// net/http JSON daemon over the spec front door (internal/spec +
// vprobe.CompileScenario / RunCluster). It accepts serializable
// scenario and cluster specs, runs them on a bounded worker pool with
// per-request context cancellation and a server-enforced timeout, streams
// progress events as JSONL while a run is in flight, exports each run's
// telemetry through the existing internal/telemetry exporters, and caches
// completed runs keyed by the spec's canonical hash — determinism makes a
// cached result byte-identical to re-running it.
//
// A run records its events in a vprobe.EventLog, whose varint records
// hold no pointers, and renders them as JSONL only when /events is read,
// a bounded batch of events per write; a done run's JSON reply is
// rendered once at completion and written as is to every later GET and
// cache hit. When the run ends, the log is sealed to exact length and
// every rendered artifact is kept at its exact size. So a cached run
// keeps about 10 bytes an event and a few rendered artifacts, not its
// whole event stream as text (TestServedRunRetainedBytes bounds it).
//
// Endpoints (see cmd/vprobe-serve for the daemon):
//
//	POST /v1/simulations          run a ScenarioV1 (sync; ?async=1 queues)
//	POST /v1/clusters             run a ClusterV1  (sync; ?async=1 queues)
//	GET  /v1/runs/{id}            run status and result
//	GET  /v1/runs/{id}/events     JSONL event stream (follows a live run)
//	GET  /v1/runs/{id}/spans      span flight recorder (JSONL; ?format=chrome)
//	GET  /v1/runs/{id}/explain    placement provenance queries over the spans
//	GET  /v1/runs/{id}/telemetry  JSONL metric time series of the run
//	GET  /v1/runs/{id}/metrics    Prometheus text exposition of the run
//	DELETE /v1/runs/{id}          cancel a live run
//	POST /v1/capacity             what-if: can a ClusterV1 fleet absorb +N% arrivals?
//	GET  /healthz                 liveness
//	GET  /metrics                 server metrics, Prometheus text
//
// The error-to-HTTP-status mapping is one table in status.go; every public
// sentinel of the vprobe package maps to a deliberate status, audited by
// this package's tests.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"vprobe/internal/harness"
	"vprobe/internal/telemetry"
)

// Options configures a Server. Zero values select the noted defaults.
type Options struct {
	// MaxConcurrent bounds simultaneous simulation runs, like the harness
	// pool bounds experiment fan-out (default GOMAXPROCS, via
	// harness.Workers). Requests beyond the bound queue for a slot.
	MaxConcurrent int
	// RunTimeout is the server-enforced wall-clock cap per run (default
	// 2 minutes). A run that exceeds it fails with 504.
	RunTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// BaseContext is the lifecycle context for async runs, which outlive
	// their originating request (default context.Background; cmd passes
	// the signal-cancelled context so shutdown aborts queued runs).
	BaseContext context.Context
}

// Server routes the API. Create with New, serve via Handler.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	slots   chan struct{}
	runs    *registry
	metrics *serverMetrics
}

// New builds a Server.
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	opts.MaxConcurrent = harness.Workers(opts.MaxConcurrent, opts.MaxConcurrent)
	if opts.RunTimeout <= 0 {
		opts.RunTimeout = 2 * time.Minute
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.BaseContext == nil {
		opts.BaseContext = context.Background() //vet:ctx daemon lifecycle root; cmd overrides with its signal ctx
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		slots:   make(chan struct{}, opts.MaxConcurrent),
		runs:    newRegistry(),
		metrics: newServerMetrics(),
	}
	s.mux.HandleFunc("POST /v1/simulations", s.instrument("simulations", s.handleSimulations))
	s.mux.HandleFunc("POST /v1/clusters", s.instrument("clusters", s.handleClusters))
	s.mux.HandleFunc("GET /v1/runs/{id}", s.instrument("runs", s.handleRunGet))
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.instrument("runs", s.handleRunCancel))
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.instrument("events", s.handleRunEvents))
	s.mux.HandleFunc("GET /v1/runs/{id}/spans", s.instrument("spans", s.handleRunSpans))
	s.mux.HandleFunc("GET /v1/runs/{id}/explain", s.instrument("explain", s.handleRunExplain))
	s.mux.HandleFunc("GET /v1/runs/{id}/telemetry", s.instrument("telemetry", s.handleRunTelemetry))
	s.mux.HandleFunc("GET /v1/runs/{id}/metrics", s.instrument("telemetry", s.handleRunMetrics))
	s.mux.HandleFunc("POST /v1/capacity", s.instrument("capacity", s.handleCapacity))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// instrument counts requests per endpoint.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := s.metrics.requests(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inc(c)
		h(w, r)
	}
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleMetrics exports the server's own counters as Prometheus text,
// through the same exposition writer the simulation telemetry uses.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An unencodable value writes an empty body, as json.Encoder does; a
	// failed write means the client left. Neither leaves anything to do.
	_ = encodeJSON(w, v)
}

// encodeJSON writes v to w as every JSON response carries it: two-space
// indent, map keys sorted, a trailing newline. It writes nothing when v
// cannot be encoded.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeStatus writes the one error shape every failure answers with.
func writeStatus(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// writeError renders err with the status the table in status.go assigns.
func writeError(w http.ResponseWriter, err error) {
	writeStatus(w, statusFor(err), err.Error())
}

// serverMetrics is the daemon's own instrumentation: a telemetry.Registry
// (so /metrics reuses the existing Prometheus exposition writer) guarded
// by a mutex, because unlike a single-threaded simulation the daemon
// updates counters from concurrent request goroutines.
type serverMetrics struct {
	mu         sync.Mutex
	reg        *telemetry.Registry
	byEndpoint map[string]*telemetry.Counter
	runsDone   *telemetry.Counter
	runsFail   *telemetry.Counter
	runsCanc   *telemetry.Counter
	cacheHit   *telemetry.Counter
	cacheMiss  *telemetry.Counter
	active     *telemetry.Gauge
}

// metricEndpoints lists the instrumented endpoint labels, sorted; every
// series is pre-registered so scrape output is stable from the first
// request.
var metricEndpoints = []string{
	"capacity", "clusters", "events", "explain", "runs", "simulations",
	"spans", "telemetry",
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg, byEndpoint: make(map[string]*telemetry.Counter)}
	for _, ep := range metricEndpoints {
		m.byEndpoint[ep] = reg.Counter("vprobe_serve_requests_total",
			"API requests received, by endpoint.",
			telemetry.Label{Key: "endpoint", Value: ep})
	}
	m.runsDone = reg.Counter("vprobe_serve_runs_total",
		"Simulation runs finished, by final state.",
		telemetry.Label{Key: "state", Value: "done"})
	m.runsFail = reg.Counter("vprobe_serve_runs_total",
		"Simulation runs finished, by final state.",
		telemetry.Label{Key: "state", Value: "failed"})
	m.runsCanc = reg.Counter("vprobe_serve_runs_total",
		"Simulation runs finished, by final state.",
		telemetry.Label{Key: "state", Value: "cancelled"})
	m.cacheHit = reg.Counter("vprobe_serve_cache_hits_total",
		"Requests answered from the determinism-keyed result cache.")
	m.cacheMiss = reg.Counter("vprobe_serve_cache_misses_total",
		"Requests that had to run a fresh simulation.")
	m.active = reg.Gauge("vprobe_serve_runs_active",
		"Simulation runs currently holding a worker slot.")
	return m
}

func (m *serverMetrics) requests(endpoint string) *telemetry.Counter {
	c, ok := m.byEndpoint[endpoint]
	if !ok {
		panic(fmt.Sprintf("serve: endpoint %q not pre-registered", endpoint))
	}
	return c
}

func (m *serverMetrics) inc(c *telemetry.Counter) {
	m.mu.Lock()
	c.Inc()
	m.mu.Unlock()
}

func (m *serverMetrics) addActive(d float64) {
	m.mu.Lock()
	m.active.Add(d)
	m.mu.Unlock()
}

func (m *serverMetrics) write(w http.ResponseWriter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg.WritePrometheus(w) // a failed write means the client left
}
