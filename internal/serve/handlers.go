package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"vprobe"
	"vprobe/internal/spec"
	"vprobe/internal/telemetry"
)

// decodeSpec reads, decodes and validates a request body into dst,
// enforcing the body cap and rejecting unknown fields so typos fail
// loudly instead of silently running the default scenario. A false
// return means the 400 has been written.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, dst interface{ Validate() error }) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %v", spec.ErrInvalid, err) //vet:nowrap decode errors carry no sentinel worth chaining
	case dec.More():
		err = fmt.Errorf("%w: trailing data after spec", spec.ErrInvalid)
	default:
		err = dst.Validate()
	}
	if err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// handleSimulations accepts a ScenarioV1 and runs it. Synchronous by
// default: the response is the completed run, and closing the request
// aborts the simulation and frees its worker slot. ?async=1 answers 202
// immediately with the run ID for polling.
func (s *Server) handleSimulations(w http.ResponseWriter, r *http.Request) {
	var sp spec.ScenarioV1
	if s.decodeSpec(w, r, &sp) {
		s.dispatch(w, r, "scenario", sp.Key(), s.scenarioBody(sp.Normalize()))
	}
}

// handleClusters is handleSimulations for ClusterV1 specs.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	var sp spec.ClusterV1
	if s.decodeSpec(w, r, &sp) {
		s.dispatch(w, r, "cluster", sp.Key(), s.clusterBody(sp.Normalize()))
	}
}

// dispatch answers a validated POST with its run: the cached one when
// the canonical key has already completed, else a fresh one — run inline
// for sync requests, or queued for ?async=1 and answered 202.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind, key string, body func(ctx context.Context, rn *Run) error) {
	async := r.URL.Query().Get("async") == "1"
	rn, cached := s.obtain(r.Context(), async, kind, key, body)
	switch {
	case cached:
		rn.writeSnapshot(w, http.StatusOK, true)
	case async:
		rn.writeSnapshot(w, http.StatusAccepted, false)
	default:
		status, _ := rn.outcome()
		rn.writeSnapshot(w, status, false)
	}
}

// obtain returns the cached completed run for key, or creates its run and
// executes body: inline under ctx, or, when async, on a fresh goroutine
// rooted in the server's BaseContext. cached reports a cache hit.
func (s *Server) obtain(ctx context.Context, async bool, kind, key string, body func(ctx context.Context, rn *Run) error) (rn *Run, cached bool) {
	if rn, ok := s.runs.lookup(key); ok {
		s.metrics.inc(s.metrics.cacheHit)
		return rn, true
	}
	s.metrics.inc(s.metrics.cacheMiss)
	rn = s.runs.create(kind, key)
	if async {
		go s.execute(s.opts.BaseContext, rn, body)
	} else {
		s.execute(ctx, rn, body)
	}
	return rn, false
}

// runFromPath resolves the {id} wildcard; a nil return means the 404 has
// been written.
func (s *Server) runFromPath(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	rn, ok := s.runs.get(id)
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("serve: no run %q", id))
		return nil
	}
	return rn
}

// ready reports whether rn's artifacts can be served: the run is done
// and, when spans are asked for, traced. Otherwise it writes the 409 or
// 404 and reports false. A done run's artifacts never change, so the
// caller reads them after ready without the lock.
func ready(w http.ResponseWriter, rn *Run, spans bool) bool {
	rn.mu.Lock()
	state, traced := rn.state, rn.spans != nil
	rn.mu.Unlock()
	switch {
	case state != StateDone:
		writeStatus(w, http.StatusConflict, fmt.Sprintf("serve: run %s is %s, artifacts exist once done", rn.ID, state))
	case spans && !traced:
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("serve: run %s recorded no spans; POST the spec with \"trace\": true", rn.ID))
	default:
		return true
	}
	return false
}

// handleRunGet reports a run's state and, once done, its result.
func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	rn.writeSnapshot(w, http.StatusOK, false)
}

// handleRunCancel aborts a live run; cancelling a finished run is a 409.
func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	if !rn.requestCancel() {
		writeStatus(w, http.StatusConflict, fmt.Sprintf("serve: run %s already finished", rn.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": rn.ID, "cancelling": true})
}

// eventsPerWrite is how many events /events renders into one write. A
// rendered event is about 100 bytes, ten times its packed record, so
// rendering a done run's whole log at once would hold its full JSONL per
// reader; a batch bounds that at about 100 KB, small enough to render
// into a pooled buffer that serves the next read.
const eventsPerWrite = 1024

// handleRunEvents streams the run's JSONL event log, rendered from the
// run's EventLog as it is read, eventsPerWrite events per write. For a
// live run it follows: each wake-up renders and flushes the events
// appended since the last, and the stream ends when the run reaches a
// terminal state or the client disconnects.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	buf := renderBufs.Get().(*bytes.Buffer)
	defer renderBufs.Put(buf)
	for offset := 0; ; {
		select {
		case <-rn.log.Grown(offset):
		case <-rn.done:
		case <-r.Context().Done():
			return
		}
		// A terminal run appends nothing more, so reading the state
		// before the length cannot miss a last event.
		terminal := isClosed(rn.done)
		for n := rn.log.Len(); offset < n; {
			to := min(offset+eventsPerWrite, n)
			buf.Reset()
			buf.Write(rn.log.AppendJSONL(buf.AvailableBuffer(), offset, to))
			offset = to
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if terminal {
			return
		}
	}
}

// isClosed reports whether c is closed, without blocking.
func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// handleRunSpans renders the run's span flight recorder as it is read:
// the JSONL span stream by default (vprobe-explain's input format),
// Chrome trace-event JSON with ?format=chrome. Runs whose spec did not set
// trace answer 404 — including cache hits, where the cached result was
// recorded without tracing (the canonical key zeroes the trace fields).
func (s *Server) handleRunSpans(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	contentType, render := "application/jsonl", (*vprobe.Tracing).WriteSpans
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
	case "chrome":
		contentType, render = "application/json", (*vprobe.Tracing).WriteChromeTrace
	default:
		writeError(w, fmt.Errorf("%w: format %q (have jsonl, chrome)",
			spec.ErrInvalid, r.URL.Query().Get("format")))
		return
	}
	if !ready(w, rn, true) {
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_ = render(rn.spans, w) // a failed write means the client left; nothing to do
}

// handleRunExplain answers placement provenance queries over a traced
// run's recorded spans: ?vm=NAME with q=why (default: why did the VM land
// where it did), q=why-not&host=H (why was H not chosen), q=rejected,
// q=preempted, or q=timeline (the VM's full span timeline). Without ?vm
// it lists the recorded VMs and a span summary.
func (s *Server) handleRunExplain(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	if !ready(w, rn, true) {
		return
	}
	ix := rn.spans.Index()
	q := r.URL.Query()
	vm, query := q.Get("vm"), q.Get("q")
	if vm == "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"run":     rn.ID,
			"vms":     ix.VMs(),
			"summary": ix.Summary(),
		})
		return
	}
	if query == "" {
		query = "why"
	}
	answer, err := ix.Explain(query, vm, q.Get("host"))
	if errors.Is(err, telemetry.ErrExplainQuery) {
		writeError(w, fmt.Errorf("%w: q %q: %w", spec.ErrInvalid, query, err))
		return
	}
	if err != nil {
		writeStatus(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":    rn.ID,
		"vm":     vm,
		"q":      query,
		"answer": answer,
	})
}

// handleRunTelemetry serves the run's metric time series as JSONL.
func (s *Server) handleRunTelemetry(w http.ResponseWriter, r *http.Request) {
	s.serveTelemetry(w, r, "application/jsonl", (*vprobe.Telemetry).WriteJSONL)
}

// handleRunMetrics serves the run's final metric values as Prometheus
// text exposition.
func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	s.serveTelemetry(w, r, "text/plain; version=0.0.4", (*vprobe.Telemetry).WritePrometheus)
}

// serveTelemetry renders a completed run's sealed telemetry as it is
// read; runs that are not done yet answer 409 so clients learn to poll
// /v1/runs/{id} first.
func (s *Server) serveTelemetry(w http.ResponseWriter, r *http.Request, contentType string, render func(*vprobe.Telemetry, io.Writer) error) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	if !ready(w, rn, false) {
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_ = render(rn.tele, w) // a failed write means the client left; nothing to do
}

// handleCapacity answers the planning question "can this fleet absorb a
// demand spike?" by running the ClusterV1 in the body twice — at its
// arrival rate and at rate*factor — and comparing rejection rates against
// the allowed ceiling, max_rejection. Both runs flow through the result
// cache, so repeated what-ifs over the same fleet are free.
func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	factor, err := queryFloat(q, "factor", 1.2, "positive and finite",
		func(f float64) bool { return f > 0 && !math.IsInf(f, 0) })
	if err != nil {
		writeError(w, err)
		return
	}
	maxRejection, err := queryFloat(q, "max_rejection", 0.05, "in [0, 1]",
		func(f float64) bool { return f >= 0 && f <= 1 })
	if err != nil {
		writeError(w, err)
		return
	}
	var base spec.ClusterV1
	if !s.decodeSpec(w, r, &base) {
		return
	}
	// Scale the concrete rate: an omitted rate is the default, not zero.
	base = base.Normalize()
	scaled := base
	scaled.ArrivalsPerSecond = base.ArrivalsPerSecond * factor
	if err := scaled.Validate(); err != nil {
		writeError(w, fmt.Errorf("%w (the rate scaled by factor %v)", err, factor))
		return
	}

	type leg struct {
		Rate          float64 `json:"arrivals_per_second"`
		RunID         string  `json:"run_id"`
		Cached        bool    `json:"cached"`
		RejectionRate float64 `json:"rejection_rate"`
		Utilization   float64 `json:"utilization"`
	}
	// runLeg runs one leg; a false return means its failure is written.
	runLeg := func(sp spec.ClusterV1) (leg, bool) {
		rn, cached := s.obtain(r.Context(), false, "cluster", sp.Key(), s.clusterBody(sp.Normalize()))
		l := leg{Rate: sp.ArrivalsPerSecond, RunID: rn.ID, Cached: cached}
		if status, runErr := rn.outcome(); status != http.StatusOK {
			writeStatus(w, status, fmt.Sprintf("serve: capacity leg %s: %s", rn.ID, runErr))
			return l, false
		}
		var done struct {
			Summary *struct {
				RejectionRate float64 `json:"rejection_rate"`
				Utilization   float64 `json:"utilization"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(rn.body, &done); err != nil || done.Summary == nil {
			writeStatus(w, http.StatusInternalServerError, fmt.Sprintf("serve: capacity leg %s has no cluster summary", rn.ID))
			return l, false
		}
		l.RejectionRate, l.Utilization = done.Summary.RejectionRate, done.Summary.Utilization
		return l, true
	}

	baseLeg, ok := runLeg(base)
	if !ok {
		return
	}
	scaledLeg, ok := runLeg(scaled)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"factor":             factor,
		"max_rejection_rate": maxRejection,
		"baseline":           baseLeg,
		"scaled":             scaledLeg,
		"absorbs":            scaledLeg.RejectionRate <= maxRejection,
	})
}

// queryFloat parses the query parameter name as a float, def when it is
// absent, and rejects a value ok refuses as not being want.
func queryFloat(q url.Values, name string, def float64, want string, ok func(float64) bool) (float64, error) {
	f := def
	if v := q.Get(name); v != "" {
		var err error
		if f, err = strconv.ParseFloat(v, 64); err != nil {
			return 0, fmt.Errorf("%w: query %s=%q: %v", spec.ErrInvalid, name, v, err) //vet:nowrap parse errors carry no sentinel worth chaining
		}
	}
	if !ok(f) {
		return 0, fmt.Errorf("%w: %s %v must be %s", spec.ErrInvalid, name, f, want)
	}
	return f, nil
}
