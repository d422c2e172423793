package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"vprobe"
	"vprobe/internal/spec"
)

// State is a run's lifecycle phase.
type State string

// Run states. A run is terminal in StateDone, StateFailed, or
// StateCancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Run is one accepted simulation request and — once finished — its
// immutable result. Completed runs are cached by Key and served again
// byte-for-byte: determinism guarantees a re-run would produce exactly
// these bytes.
type Run struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "scenario" or "cluster"
	Key  string `json:"key"`

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on event growth and state changes
	state  State
	err    string
	status int // HTTP status of the failure, when state == StateFailed
	cancel context.CancelFunc

	events    []byte // JSONL, grows while running
	report    string // rendered report text
	summary   any    // JSON summary of the report
	telemetry []byte // JSONL time series, set at completion
	prom      []byte // Prometheus text exposition, set at completion
	traced    bool   // the spec asked for span tracing
	spans     []byte // JSONL span stream, set at completion when traced
	chrome    []byte // Chrome trace-event JSON, set at completion when traced
}

func newRun(id, kind, key string) *Run {
	rn := &Run{ID: id, Kind: kind, Key: key, state: StateQueued}
	rn.cond = sync.NewCond(&rn.mu)
	return rn
}

// snapshot returns the JSON view of the run's current state.
func (rn *Run) snapshot() map[string]any {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	v := map[string]any{
		"id":    rn.ID,
		"kind":  rn.Kind,
		"key":   rn.Key,
		"state": rn.state,
	}
	if rn.err != "" {
		v["error"] = rn.err
	}
	if rn.state == StateDone {
		v["report"] = rn.report
		v["summary"] = rn.summary
	}
	return v
}

// setRunning publishes the transition out of the queue.
func (rn *Run) setRunning(cancel context.CancelFunc) {
	rn.mu.Lock()
	rn.state = StateRunning
	rn.cancel = cancel
	rn.cond.Broadcast()
	rn.mu.Unlock()
}

// finish records a terminal state and wakes every follower.
func (rn *Run) finish(state State, err error) {
	rn.mu.Lock()
	rn.state = state
	if err != nil {
		rn.err = err.Error()
		rn.status = statusFor(err)
	}
	rn.cancel = nil
	rn.cond.Broadcast()
	rn.mu.Unlock()
}

// requestCancel aborts a live run; it reports whether there was anything
// to cancel.
func (rn *Run) requestCancel() bool {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if rn.state.Terminal() {
		return false
	}
	if rn.cancel != nil {
		rn.cancel()
	} else {
		// Still queued: mark so execute() drops it before starting.
		rn.state = StateCancelled
		rn.cond.Broadcast()
	}
	return true
}

// registry tracks runs by ID and caches completed ones by canonical key.
type registry struct {
	mu    sync.Mutex
	next  int
	byID  map[string]*Run
	byKey map[string]*Run // completed (StateDone) runs only
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]*Run), byKey: make(map[string]*Run)}
}

// lookup returns the cached completed run for key, when there is one.
func (g *registry) lookup(key string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rn, ok := g.byKey[key]
	return rn, ok
}

// get returns the run with the given ID.
func (g *registry) get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rn, ok := g.byID[id]
	return rn, ok
}

// create registers a fresh run for the key.
func (g *registry) create(kind, key string) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	rn := newRun(fmt.Sprintf("run-%06d", g.next), kind, key)
	g.byID[rn.ID] = rn
	return rn
}

// complete enters a finished run into the result cache. The first
// completion wins; concurrent duplicates stay addressable by ID.
func (g *registry) complete(rn *Run) {
	g.mu.Lock()
	if _, ok := g.byKey[rn.Key]; !ok {
		g.byKey[rn.Key] = rn
	}
	g.mu.Unlock()
}

// samplePeriod is the virtual-time telemetry sampling interval for every
// served run. It is part of the cache contract: a fixed period keeps the
// exported time series a pure function of (spec, seed), and it is short
// enough that even sub-second test horizons produce samples.
const samplePeriod = 100 * time.Millisecond

// eventSink appends each typed event to the run's JSONL stream (the
// vprobe-trace -json record, see vprobe.Event.AppendJSON) and wakes the
// stream's followers.
func (rn *Run) eventSink() vprobe.EventSink {
	return vprobe.EventFunc(func(ev vprobe.Event) {
		rn.mu.Lock()
		rn.events = append(ev.AppendJSON(rn.events), '\n')
		rn.cond.Broadcast()
		rn.mu.Unlock()
	})
}

// acquireSlot blocks until a worker slot frees up or ctx is cancelled,
// mirroring how the harness pool bounds experiment fan-out. The release
// func is nil when acquisition failed.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		s.metrics.addActive(1)
		return func() {
			<-s.slots
			s.metrics.addActive(-1)
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// execute runs one compiled request to completion on a worker slot. ctx
// is the request context (sync) or the server's base context (async); a
// server-enforced timeout is layered on top. On success the run enters
// the result cache.
func (s *Server) execute(ctx context.Context, rn *Run, body func(ctx context.Context, rn *Run) error) {
	release, err := s.acquireSlot(ctx)
	if err != nil {
		rn.finish(StateCancelled, fmt.Errorf("cancelled waiting for a worker slot: %w", err))
		return
	}
	defer release()
	rn.mu.Lock()
	if rn.state.Terminal() { // cancelled while queued
		rn.mu.Unlock()
		return
	}
	rn.mu.Unlock()

	runCtx, cancel := context.WithTimeout(ctx, s.opts.RunTimeout)
	defer cancel()
	rn.setRunning(cancel)

	if err := body(runCtx, rn); err != nil {
		state := StateFailed
		if runCtx.Err() != nil {
			state = StateCancelled
		}
		rn.finish(state, err)
		if state == StateCancelled {
			s.metrics.inc(s.metrics.runsCanc)
		} else {
			s.metrics.inc(s.metrics.runsFail)
		}
		return
	}
	rn.finish(StateDone, nil)
	s.runs.complete(rn)
	s.metrics.inc(s.metrics.runsDone)
}

// scenarioBody builds the run body for a ScenarioV1: compile through the
// spec front door, attach the event stream and a telemetry collector, run
// to the horizon, and store the rendered artifacts.
func (s *Server) scenarioBody(sp spec.ScenarioV1) func(ctx context.Context, rn *Run) error {
	return func(ctx context.Context, rn *Run) error {
		tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: samplePeriod})
		sim, horizon, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{
			Events:    rn.eventSink(),
			Telemetry: tele,
		})
		if err != nil {
			return err
		}
		rep, err := sim.RunContext(ctx, horizon)
		if err != nil {
			return err
		}
		return rn.storeResult(rep.String(), scenarioSummary(rep), tele, sim.Tracing())
	}
}

// clusterBody is scenarioBody's cluster twin.
func (s *Server) clusterBody(sp spec.ClusterV1) func(ctx context.Context, rn *Run) error {
	return func(ctx context.Context, rn *Run) error {
		tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: samplePeriod})
		rep, err := vprobe.RunCluster(ctx, sp, vprobe.CompileOptions{
			Events:    rn.eventSink(),
			Telemetry: tele,
		})
		if err != nil {
			return err
		}
		return rn.storeResult(rep.String(), clusterSummary(rep), tele, rep.Tracing())
	}
}

// storeResult renders the run's immutable artifacts. spans is nil for
// untraced runs — the spans and explain endpoints then answer 404.
func (rn *Run) storeResult(report string, summary any, tele *vprobe.Telemetry, spans *vprobe.Tracing) error {
	var series, prom bytes.Buffer
	if err := tele.WriteJSONL(&series); err != nil {
		return fmt.Errorf("serve: telemetry export: %w", err)
	}
	if err := tele.WritePrometheus(&prom); err != nil {
		return fmt.Errorf("serve: telemetry export: %w", err)
	}
	var spanJSONL, chrome bytes.Buffer
	if spans != nil {
		if err := spans.WriteSpans(&spanJSONL); err != nil {
			return fmt.Errorf("serve: span export: %w", err)
		}
		if err := spans.WriteChromeTrace(&chrome); err != nil {
			return fmt.Errorf("serve: span export: %w", err)
		}
	}
	rn.mu.Lock()
	rn.report = report
	rn.summary = summary
	rn.telemetry = series.Bytes()
	rn.prom = prom.Bytes()
	if spans != nil {
		rn.traced = true
		rn.spans = spanJSONL.Bytes()
		rn.chrome = chrome.Bytes()
	}
	rn.mu.Unlock()
	return nil
}

// scenarioSummary is the JSON-friendly digest of a scenario report.
func scenarioSummary(rep *vprobe.Report) any {
	apps := make([]map[string]any, 0, len(rep.Apps))
	for _, a := range rep.Apps {
		apps = append(apps, map[string]any{
			"vm":                a.VM,
			"app":               a.App,
			"finished":          a.Finished,
			"exec_seconds":      a.ExecTime.Seconds(),
			"remote_ratio":      a.RemoteRatio,
			"page_remote_ratio": a.PageRemoteRatio,
			"requests":          a.Requests,
			"node_moves":        a.NodeMoves,
		})
	}
	return map[string]any{
		"scheduler":         string(rep.Scheduler),
		"end_seconds":       rep.End.Seconds(),
		"all_finished":      rep.AllFinished(),
		"total_requests":    rep.TotalRequests(),
		"overhead_fraction": rep.OverheadFraction,
		"apps":              apps,
	}
}

// clusterSummary is the JSON-friendly digest of a cluster report.
func clusterSummary(rep *vprobe.ClusterReport) any {
	return map[string]any{
		"policy":          string(rep.Policy),
		"scheduler":       string(rep.Scheduler),
		"hosts":           rep.Hosts,
		"horizon_seconds": rep.Horizon.Seconds(),
		"arrivals":        rep.Arrivals,
		"placed":          rep.Placed,
		"retries":         rep.Retries,
		"rejected":        rep.Rejected,
		"departed":        rep.Departed,
		"migrations":      rep.Migrations,
		"rejection_rate":  rep.RejectionRate,
		"remote_ratio":    rep.RemoteRatio,
		"utilization":     rep.Utilization,
	}
}
