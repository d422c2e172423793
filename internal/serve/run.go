package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
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

	// log records the run's events as the simulation emits them; the
	// events endpoint renders them as JSONL when they are read.
	log *vprobe.EventLog
	// done is closed when the run reaches a terminal state, after its
	// last event.
	done chan struct{}

	mu     sync.Mutex
	state  State
	err    string
	status int // HTTP status of the failure, when state == StateFailed
	cancel context.CancelFunc

	// The artifacts below are set before the run enters StateDone and
	// never change after, so a reader that saw StateDone under mu reads
	// them without it.
	body []byte // JSON view of the done run, rendered at completion
	// tele is the run's sealed telemetry and spans its sealed span
	// recorder (nil when the spec did not ask for tracing), both set at
	// completion; the telemetry, metrics, spans and explain endpoints
	// render them when they are read.
	tele  *vprobe.Telemetry
	spans *vprobe.Tracing
}

func newRun(id, kind, key string) *Run {
	return &Run{ID: id, Kind: kind, Key: key, state: StateQueued,
		log: new(vprobe.EventLog), done: make(chan struct{})}
}

// view returns the JSON view of a run that is not done. rn.mu is held.
func (rn *Run) view() map[string]any {
	v := map[string]any{
		"id":    rn.ID,
		"kind":  rn.Kind,
		"key":   rn.Key,
		"state": rn.state,
	}
	if rn.err != "" {
		v["error"] = rn.err
	}
	return v
}

// writeSnapshot writes the run's current JSON view with the given status.
// A done run writes the bytes rendered at completion. cached marks a
// cache hit: "cached": true leads the object, where encoding/json's
// sorted map keys would put it.
func (rn *Run) writeSnapshot(w http.ResponseWriter, status int, cached bool) {
	rn.mu.Lock()
	var body []byte
	var v map[string]any
	if rn.state == StateDone {
		body = rn.body
	} else {
		v = rn.view()
	}
	rn.mu.Unlock()
	if body == nil {
		if cached {
			v["cached"] = true
		}
		writeJSON(w, status, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if cached {
		// body is "{\n  \"id\": ...": splice the key in after the brace.
		_, _ = io.WriteString(w, "{\n  \"cached\": true,")
		body = body[1:]
	}
	_, _ = w.Write(body) // a failed write means the client left; nothing to do
}

// outcome is the HTTP status a finished synchronous run answers with,
// and its error: 200 when done, else the failure's status (500 when it
// has none).
func (rn *Run) outcome() (int, string) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	switch {
	case rn.state == StateDone:
		return http.StatusOK, ""
	case rn.status == 0:
		return http.StatusInternalServerError, rn.err
	}
	return rn.status, rn.err
}

// setRunning publishes the transition out of the queue.
func (rn *Run) setRunning(cancel context.CancelFunc) {
	rn.mu.Lock()
	rn.state = StateRunning
	rn.cancel = cancel
	rn.mu.Unlock()
}

// finish records a terminal state and wakes every follower.
func (rn *Run) finish(state State, err error) {
	rn.mu.Lock()
	if err != nil {
		rn.err = err.Error()
		rn.status = statusFor(err)
	}
	rn.cancel = nil
	rn.end(state)
	rn.mu.Unlock()
}

// end enters the terminal state. rn.mu is held. A run cancelled while
// queued can fail to get its slot afterwards; the second end only
// relabels it.
func (rn *Run) end(state State) {
	if !rn.state.Terminal() {
		close(rn.done)
	}
	rn.state = state
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
		rn.end(StateCancelled)
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
// spec front door, attach the run's event log and a telemetry collector,
// run to the horizon, and store the rendered artifacts.
func (s *Server) scenarioBody(sp spec.ScenarioV1) func(ctx context.Context, rn *Run) error {
	return func(ctx context.Context, rn *Run) error {
		tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: samplePeriod})
		sim, horizon, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{
			Events:    rn.log,
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
			Events:    rn.log,
			Telemetry: tele,
		})
		if err != nil {
			return err
		}
		return rn.storeResult(rep.String(), clusterSummary(rep), tele, rep.Tracing())
	}
}

// storeResult keeps the run's immutable artifacts: the JSON view of the
// done run (report and summary included), rendered and kept at its exact
// length. The events stay in the (sealed) log, the numbers in the
// (sealed) telemetry and the spans in the (sealed) recorder until they
// are read. spans is nil for untraced runs — the spans and explain
// endpoints then answer 404.
func (rn *Run) storeResult(report string, summary any, tele *vprobe.Telemetry, spans *vprobe.Tracing) error {
	buf := renderBufs.Get().(*bytes.Buffer)
	defer renderBufs.Put(buf)
	buf.Reset()
	if err := encodeJSON(buf, map[string]any{
		"id":      rn.ID,
		"kind":    rn.Kind,
		"key":     rn.Key,
		"state":   StateDone,
		"report":  report,
		"summary": summary,
	}); err != nil {
		return fmt.Errorf("serve: encoding the result: %w", err)
	}
	body := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	rn.mu.Lock()
	rn.body = body
	rn.tele = tele
	rn.spans = spans
	rn.mu.Unlock()
	return nil
}

// renderBufs holds the buffers storeResult and /events render into. A
// run keeps an exact-size copy of what one holds, and /events writes
// each batch out before the next, so a buffer's grown capacity serves
// the next run or read instead of being left to the collector.
var renderBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

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
