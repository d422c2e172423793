package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

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
		resp := rn.snapshot()
		resp["cached"] = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.inc(s.metrics.cacheMiss)
	rn := s.runs.create(kind, key)
	if r.URL.Query().Get("async") == "1" {
		go s.execute(s.opts.BaseContext, rn, body)
		writeJSON(w, http.StatusAccepted, rn.snapshot())
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
	writeJSON(w, status, rn.snapshot())
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
	writeJSON(w, http.StatusOK, rn.snapshot())
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

// handleRunEvents streams the run's JSONL event log. For a live run it
// follows: bytes are flushed as the simulation emits them, and the stream
// ends when the run reaches a terminal state or the client disconnects.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Wake the follower loop when the client goes away; without this a
	// disconnected follower would sleep on the cond until the next event.
	stop := context.AfterFunc(r.Context(), func() { rn.cond.Broadcast() })
	defer stop()

	offset := 0
	for {
		rn.mu.Lock()
		for len(rn.events) == offset && !rn.state.Terminal() && r.Context().Err() == nil {
			rn.cond.Wait()
		}
		chunk := rn.events[offset:]
		offset = len(rn.events)
		terminal := rn.state.Terminal()
		rn.mu.Unlock()

		if r.Context().Err() != nil {
			return
		}
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if terminal && len(chunk) == 0 {
			return
		}
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
	s.serveArtifact(w, r, "application/jsonl", func(rn *Run) []byte { return rn.telemetry })
}

// handleRunMetrics serves the run's final metric values as Prometheus
// text exposition.
func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r, "text/plain; version=0.0.4", func(rn *Run) []byte { return rn.prom })
}

// serveArtifact writes a completed run's rendered artifact; runs that are
// not done yet answer 409 so clients learn to poll /v1/runs/{id} first.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, contentType string, pick func(*Run) []byte) {
	rn := s.runFromPath(w, r)
	if rn == nil {
		return
	}
	rn.mu.Lock()
	state := rn.state
	body := pick(rn)
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
	_, _ = w.Write(body)
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
	scaled := base
	scaled.ArrivalsPerSecond = base.ArrivalsPerSecond * factor

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
		defer rn.mu.Unlock()
		l.RunID = rn.ID
		if rn.state != StateDone {
			return l, fmt.Errorf("serve: capacity leg %s: %s", rn.ID, rn.err)
		}
		sum, ok := rn.summary.(map[string]any)
		if !ok {
			return l, fmt.Errorf("serve: capacity leg %s has no cluster summary", rn.ID)
		}
		l.RejectionRate, _ = sum["rejection_rate"].(float64)
		l.Utilization, _ = sum["utilization"].(float64)
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

// capacityQuery builds the baseline ClusterV1 from query parameters.
func capacityQuery(r *http.Request) (base spec.ClusterV1, factor, maxRejection float64, err error) {
	q := r.URL.Query()
	factor, maxRejection = 1.2, 0.05
	base = spec.ClusterV1{
		Topology:  q.Get("topology"),
		Scheduler: q.Get("sched"),
		Policy:    q.Get("policy"),
		Mix:       q.Get("mix"),
	}
	var perr error
	fail := func(key string) (spec.ClusterV1, float64, float64, error) {
		return base, factor, maxRejection,
			fmt.Errorf("%w: query %s: %v", spec.ErrInvalid, key, perr) //vet:nowrap strconv errors carry no sentinel worth chaining
	}
	floats := []struct {
		key string
		dst *float64
	}{
		{"rate", &base.ArrivalsPerSecond},
		{"factor", &factor},
		{"max_rejection", &maxRejection},
	}
	for _, p := range floats {
		if v := q.Get(p.key); v != "" {
			if *p.dst, perr = strconv.ParseFloat(v, 64); perr != nil {
				return fail(p.key)
			}
		}
	}
	ints := []struct {
		key string
		dst *int
	}{
		{"hosts", &base.Hosts},
		{"workers", &base.Workers},
	}
	for _, p := range ints {
		if v := q.Get(p.key); v != "" {
			if *p.dst, perr = strconv.Atoi(v); perr != nil {
				return fail(p.key)
			}
		}
	}
	if v := q.Get("seed"); v != "" {
		if base.Seed, perr = strconv.ParseUint(v, 10, 64); perr != nil {
			return fail("seed")
		}
	}
	durs := []struct {
		key string
		dst *spec.Duration
	}{
		{"lifetime", &base.MeanLifetime},
		{"horizon", &base.Horizon},
	}
	for _, p := range durs {
		if v := q.Get(p.key); v != "" {
			if perr = p.dst.UnmarshalJSON([]byte(strconv.Quote(v))); perr != nil {
				return fail(p.key)
			}
		}
	}
	if factor <= 0 {
		return base, factor, maxRejection, fmt.Errorf("%w: factor must be positive", spec.ErrInvalid)
	}
	return base, factor, maxRejection, nil
}
