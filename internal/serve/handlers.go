package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"

	"vprobe"
	"vprobe/internal/spec"
	"vprobe/internal/telemetry"
)

// decodeSpec reads and decodes a request body into dst, enforcing the
// body cap and rejecting unknown fields so typos fail loudly instead of
// silently running the default scenario.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", spec.ErrInvalid, err) //vet:nowrap decode errors carry no sentinel worth chaining
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after spec", spec.ErrInvalid)
	}
	return nil
}

// handleSimulations accepts a ScenarioV1 and runs it. Synchronous by
// default: the response is the completed run, and closing the request
// aborts the simulation and frees its worker slot. ?async=1 answers 202
// immediately with the run ID for polling.
func (s *Server) handleSimulations(w http.ResponseWriter, r *http.Request) {
	var sp spec.ScenarioV1
	if err := s.decodeSpec(w, r, &sp); err != nil {
		writeError(w, err)
		return
	}
	if err := sp.Validate(); err != nil {
		writeError(w, err)
		return
	}
	s.dispatch(w, r, "scenario", sp.Key(), s.scenarioBody(sp.Normalize()))
}

// handleClusters is handleSimulations for ClusterV1 specs.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	var sp spec.ClusterV1
	if err := s.decodeSpec(w, r, &sp); err != nil {
		writeError(w, err)
		return
	}
	if err := sp.Validate(); err != nil {
		writeError(w, err)
		return
	}
	s.dispatch(w, r, "cluster", sp.Key(), s.clusterBody(sp.Normalize()))
}

// dispatch answers a validated POST: from the cache when the canonical
// key has already completed, otherwise by executing the body — inline for
// sync requests, on a fresh goroutine rooted in the server's BaseContext
// for ?async=1.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind, key string, body func(ctx context.Context, rn *Run) error) {
	if rn, ok := s.runs.lookup(key); ok {
		s.metrics.inc(s.metrics.cacheHit)
		rn.writeSnapshot(w, http.StatusOK, true)
		return
	}
	s.metrics.inc(s.metrics.cacheMiss)
	rn := s.runs.create(kind, key)
	if r.URL.Query().Get("async") == "1" {
		go s.execute(s.opts.BaseContext, rn, body)
		rn.writeSnapshot(w, http.StatusAccepted, false)
		return
	}
	s.execute(r.Context(), rn, body)
	rn.mu.Lock()
	status := http.StatusOK
	if rn.state != StateDone {
		status = rn.status
		if status == 0 {
			status = http.StatusInternalServerError
		}
	}
	rn.mu.Unlock()
	rn.writeSnapshot(w, status, false)
}

// runFromPath resolves the {id} wildcard; a nil return means the 404 has
// been written.
func (s *Server) runFromPath(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	rn, ok := s.runs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error":  fmt.Sprintf("serve: no run %q", id),
			"status": http.StatusNotFound,
		})
		return nil
	}
	return rn
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
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("serve: run %s already finished", rn.ID),
			"status": http.StatusConflict,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": rn.ID, "cancelling": true})
}

// handleRunEvents streams the run's JSONL event log, rendered from the
// run's EventLog as it is read. For a live run it follows: each wake-up
// renders and flushes the events appended since the last, and the stream
// ends when the run reaches a terminal state or the client disconnects.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var chunk []byte
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
		if n := rn.log.Len(); n > offset {
			chunk = rn.log.AppendJSONL(chunk[:0], offset, n)
			offset = n
			if _, err := w.Write(chunk); err != nil {
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

// handleRunSpans streams the run's span flight recorder: the JSONL span
// stream by default (vprobe-explain's input format), Chrome trace-event
// JSON with ?format=chrome. Runs whose spec did not set trace answer 404
// — including cache hits, where the cached result was recorded without
// tracing (the canonical key zeroes the trace fields).
func (s *Server) handleRunSpans(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	contentType := "application/jsonl"
	pick := func(rn *Run) []byte { return rn.spans }
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
	case "chrome":
		contentType = "application/json"
		pick = func(rn *Run) []byte { return rn.chrome }
	default:
		writeError(w, fmt.Errorf("%w: format %q (have jsonl, chrome)",
			spec.ErrInvalid, r.URL.Query().Get("format")))
		return
	}
	rn.mu.Lock()
	state, traced, body := rn.state, rn.traced, pick(rn)
	rn.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("serve: run %s is %s, artifacts exist once done", rn.ID, state),
			"status": http.StatusConflict,
		})
		return
	}
	if !traced {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error":  fmt.Sprintf("serve: run %s recorded no spans; POST the spec with \"trace\": true", rn.ID),
			"status": http.StatusNotFound,
		})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
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
	rn.mu.Lock()
	state, traced, body := rn.state, rn.traced, rn.spans
	rn.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("serve: run %s is %s, artifacts exist once done", rn.ID, state),
			"status": http.StatusConflict,
		})
		return
	}
	if !traced {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error":  fmt.Sprintf("serve: run %s recorded no spans; POST the spec with \"trace\": true", rn.ID),
			"status": http.StatusNotFound,
		})
		return
	}
	spans, err := telemetry.ReadSpans(bytes.NewReader(body))
	if err != nil {
		writeError(w, err)
		return
	}
	ix := telemetry.NewSpanIndex(spans)
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
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error":  err.Error(),
			"status": http.StatusNotFound,
		})
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
	rn.mu.Lock()
	state, tele := rn.state, rn.tele
	rn.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("serve: run %s is %s, artifacts exist once done", rn.ID, state),
			"status": http.StatusConflict,
		})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_ = render(tele, w) // a failed write means the client left; nothing to do
}

// handleCapacity answers the planning question "can this fleet absorb a
// demand spike?" by running the described cluster twice — at the baseline
// arrival rate and at rate*factor — and comparing rejection rates against
// the allowed ceiling. Both runs flow through the result cache, so
// repeated what-ifs over the same fleet are free.
func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	base, factor, maxRejection, err := capacityQuery(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := base.Validate(); err != nil {
		writeError(w, err)
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
	runLeg := func(sp spec.ClusterV1) (leg, error) {
		l := leg{Rate: sp.ArrivalsPerSecond}
		rn, ok := s.runs.lookup(sp.Key())
		if ok {
			s.metrics.inc(s.metrics.cacheHit)
			l.Cached = true
		} else {
			s.metrics.inc(s.metrics.cacheMiss)
			rn = s.runs.create("cluster", sp.Key())
			s.execute(r.Context(), rn, s.clusterBody(sp.Normalize()))
		}
		rn.mu.Lock()
		state, runErr, body := rn.state, rn.err, rn.body
		rn.mu.Unlock()
		l.RunID = rn.ID
		if state != StateDone {
			return l, fmt.Errorf("serve: capacity leg %s: %s", rn.ID, runErr)
		}
		var done struct {
			Summary *struct {
				RejectionRate float64 `json:"rejection_rate"`
				Utilization   float64 `json:"utilization"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(body, &done); err != nil || done.Summary == nil {
			return l, fmt.Errorf("serve: capacity leg %s has no cluster summary", rn.ID)
		}
		l.RejectionRate, l.Utilization = done.Summary.RejectionRate, done.Summary.Utilization
		return l, nil
	}

	baseLeg, err := runLeg(base)
	if err != nil {
		writeError(w, err)
		return
	}
	scaledLeg, err := runLeg(scaled)
	if err != nil {
		writeError(w, err)
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

// capacityQuery builds the baseline ClusterV1 from query parameters. A
// flag set parses them, one flag per parameter, so each value parses as
// it would on a command line; other parameters are ignored.
func capacityQuery(r *http.Request) (base spec.ClusterV1, factor, maxRejection float64, err error) {
	fs := flag.NewFlagSet("capacity", flag.ContinueOnError)
	fs.StringVar(&base.Topology, "topology", "", "")
	fs.StringVar(&base.Scheduler, "sched", "", "")
	fs.StringVar(&base.Policy, "policy", "", "")
	fs.StringVar(&base.Mix, "mix", "", "")
	fs.Float64Var(&base.ArrivalsPerSecond, "rate", 0, "")
	fs.IntVar(&base.Hosts, "hosts", 0, "")
	fs.IntVar(&base.Workers, "workers", 0, "")
	fs.Uint64Var(&base.Seed, "seed", 0, "")
	fs.Var(&base.MeanLifetime, "lifetime", "")
	fs.Var(&base.Horizon, "horizon", "")
	fs.Float64Var(&factor, "factor", 1.2, "")
	fs.Float64Var(&maxRejection, "max_rejection", 0.05, "")
	q := r.URL.Query()
	fs.VisitAll(func(f *flag.Flag) {
		if v := q.Get(f.Name); v != "" && err == nil {
			if perr := f.Value.Set(v); perr != nil {
				err = fmt.Errorf("%w: query %s=%q: %v", spec.ErrInvalid, f.Name, v, perr) //vet:nowrap parse errors carry no sentinel worth chaining
			}
		}
	})
	if err != nil {
		return base, factor, maxRejection, err
	}
	if !(factor > 0) || math.IsInf(factor, 0) {
		return base, factor, maxRejection, fmt.Errorf("%w: factor %v must be positive and finite", spec.ErrInvalid, factor)
	}
	if !(maxRejection >= 0 && maxRejection <= 1) {
		return base, factor, maxRejection, fmt.Errorf("%w: max_rejection %v must be in [0, 1]", spec.ErrInvalid, maxRejection)
	}
	return base, factor, maxRejection, nil
}
