package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/spec"
	"vprobe/internal/telemetry"
)

// testServer builds a Server plus an httptest front end.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// scenarioJSON is a small two-VM scenario that finishes fast.
const scenarioJSON = `{
  "scheduler": "vprobe",
  "horizon": "400ms",
  "vms": [
    {"name": "vm0", "memory_mb": 2048, "vcpus": 2,
     "apps": [{"name": "soplex"}, {"name": "mcf"}]},
    {"name": "vm1", "memory_mb": 1024, "vcpus": 1,
     "apps": [{"name": "milc"}]}
  ]
}`

// clusterJSON is a small cluster run.
const clusterJSON = `{
  "hosts": 2, "horizon": "30s", "workers": 1
}`

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestScenarioCacheByteIdentity is the tentpole contract: re-POSTing an
// identical spec answers from the cache with a byte-identical report,
// event stream, and telemetry export.
func TestScenarioCacheByteIdentity(t *testing.T) {
	_, ts := testServer(t, Options{})

	status, first := postJSON(t, ts.URL+"/v1/simulations", scenarioJSON)
	if status != http.StatusOK {
		t.Fatalf("first POST status = %d, body %v", status, first)
	}
	if first["state"] != string(StateDone) {
		t.Fatalf("first run state = %v", first["state"])
	}
	if cached, _ := first["cached"].(bool); cached {
		t.Fatal("first POST claims to be cached")
	}
	id, _ := first["id"].(string)
	_, events1 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, id))
	_, tele1 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/telemetry", ts.URL, id))
	_, prom1 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/metrics", ts.URL, id))
	if len(events1) == 0 || len(tele1) == 0 || len(prom1) == 0 {
		t.Fatal("artifacts empty after a completed run")
	}

	// A spec that differs only in formatting and explicit defaults must
	// hit the same cache entry.
	respaced := strings.ReplaceAll(scenarioJSON, "\n", " ")
	respaced = strings.Replace(respaced, `"scheduler": "vprobe",`,
		`"version": "v1", "seed": 1, "scheduler": "vprobe",`, 1)
	status, second := postJSON(t, ts.URL+"/v1/simulations", respaced)
	if status != http.StatusOK {
		t.Fatalf("second POST status = %d", status)
	}
	if cached, _ := second["cached"].(bool); !cached {
		t.Fatal("identical spec missed the cache")
	}
	if second["id"] != first["id"] {
		t.Fatalf("cache returned run %v, want %v", second["id"], first["id"])
	}
	if second["report"] != first["report"] {
		t.Fatal("cached report differs from the original")
	}
	id2, _ := second["id"].(string)
	_, events2 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, id2))
	_, tele2 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/telemetry", ts.URL, id2))
	_, prom2 := getBody(t, fmt.Sprintf("%s/v1/runs/%s/metrics", ts.URL, id2))
	if string(events1) != string(events2) {
		t.Error("cached event stream not byte-identical")
	}
	if string(tele1) != string(tele2) {
		t.Error("cached telemetry not byte-identical")
	}
	if string(prom1) != string(prom2) {
		t.Error("cached Prometheus export not byte-identical")
	}
}

// TestDoneReplyBytes pins the replies a done run writes from the bytes
// rendered at completion: the sync POST's reply, GET /v1/runs/{id} and a
// cache hit are the bytes encoding/json gives for the run's view, the hit
// with "cached": true as its first key.
func TestDoneReplyBytes(t *testing.T) {
	_, ts := testServer(t, Options{})
	post := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/simulations", "application/json", strings.NewReader(servedScenarioJSON))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST = %d, %v", resp.StatusCode, err)
		}
		return b
	}
	// reencode decodes a reply and encodes it again the way writeJSON
	// does: sorted keys, two-space indent.
	reencode := func(b []byte, drop string) []byte {
		t.Helper()
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		delete(v, drop)
		var out bytes.Buffer
		if err := encodeJSON(&out, v); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	first := post()
	if got := reencode(first, ""); !bytes.Equal(got, first) {
		t.Errorf("done reply is not encoding/json's rendering\n got: %s\nwant: %s", first, got)
	}
	var run struct{ ID string }
	if err := json.Unmarshal(first, &run); err != nil {
		t.Fatal(err)
	}
	if _, got := getBody(t, ts.URL+"/v1/runs/"+run.ID); !bytes.Equal(got, first) {
		t.Errorf("GET /v1/runs/%s differs from the POST reply", run.ID)
	}
	hit := post()
	if !bytes.HasPrefix(hit, []byte("{\n  \"cached\": true,\n")) {
		t.Errorf("cache hit does not lead with cached: %.40q", hit)
	}
	if got := reencode(hit, ""); !bytes.Equal(got, hit) {
		t.Errorf("cache hit is not encoding/json's rendering\n got: %s\nwant: %s", hit, got)
	}
	if got := reencode(hit, "cached"); !bytes.Equal(got, first) {
		t.Error("cache hit without cached differs from the first reply")
	}
}

// TestClusterWorkersShareCache pins the cache-key contract: the same
// cluster at different worker counts is one cache entry, because results
// are byte-identical at every parallelism.
func TestClusterWorkersShareCache(t *testing.T) {
	_, ts := testServer(t, Options{})

	status, first := postJSON(t, ts.URL+"/v1/clusters", clusterJSON)
	if status != http.StatusOK {
		t.Fatalf("first POST status = %d, body %v", status, first)
	}
	w4 := strings.Replace(clusterJSON, `"workers": 1`, `"workers": 4`, 1)
	status, second := postJSON(t, ts.URL+"/v1/clusters", w4)
	if status != http.StatusOK {
		t.Fatalf("second POST status = %d", status)
	}
	if cached, _ := second["cached"].(bool); !cached {
		t.Fatal("worker count changed the cache key")
	}
	if second["report"] != first["report"] {
		t.Fatal("cached cluster report differs")
	}
}

// TestValidationStatuses exercises the 4xx paths of the POST endpoints.
func TestValidationStatuses(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"no vms", "/v1/simulations", `{"vms":[]}`, http.StatusBadRequest},
		{"bad version", "/v1/simulations", `{"version":"v9","vms":[{"name":"a","memory_mb":512,"vcpus":1}]}`, http.StatusBadRequest},
		{"unknown field", "/v1/simulations", `{"vmz":[]}`, http.StatusBadRequest},
		{"unknown scheduler", "/v1/simulations", `{"scheduler":"fifo","vms":[{"name":"a","memory_mb":512,"vcpus":1}]}`, http.StatusBadRequest},
		{"bad mix", "/v1/clusters", `{"mix":"solo"}`, http.StatusBadRequest},
		{"trailing data", "/v1/clusters", `{} {}`, http.StatusBadRequest},
		{"not json", "/v1/clusters", `hosts=2`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+tc.url, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, status, tc.want, body)
		}
	}
}

// TestRunNotFound covers the {id} endpoints' 404s.
func TestRunNotFound(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, path := range []string{
		"/v1/runs/run-000042",
		"/v1/runs/run-000042/events",
		"/v1/runs/run-000042/telemetry",
		"/v1/runs/run-000042/metrics",
	} {
		status, _ := getBody(t, ts.URL+path)
		if status != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, status)
		}
	}
}

// packageVars parses the Go file at path and returns its package-level
// variable declarations.
func packageVars(t *testing.T, path string) []*ast.ValueSpec {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var vars []*ast.ValueSpec
	for _, decl := range f.Decls {
		if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.VAR {
			for _, spec := range gen.Specs {
				vars = append(vars, spec.(*ast.ValueSpec))
			}
		}
	}
	return vars
}

// isSentinel reports whether name is an exported Err* name.
func isSentinel(name string) bool {
	return strings.HasPrefix(name, "Err") && ast.IsExported(name)
}

// TestStatusTableAudit mirrors the root package's sentinel audit from the
// HTTP side: statusTable has a row for exactly the sentinels the vprobe
// package's errors.go declares, every row maps to its deliberate (non-500)
// status, and unmapped errors fall through to 500.
func TestStatusTableAudit(t *testing.T) {
	declared, inTable := map[string]bool{}, map[string]bool{}
	for _, vs := range packageVars(t, filepath.Join("..", "..", "errors.go")) {
		for _, name := range vs.Names {
			if isSentinel(name.Name) {
				declared[name.Name] = true
			}
		}
	}
	for _, vs := range packageVars(t, "status.go") {
		if vs.Names[0].Name != "statusTable" {
			continue
		}
		ast.Inspect(vs, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isSentinel(sel.Sel.Name) {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "vprobe" {
					inTable[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	if len(declared) == 0 {
		t.Fatal("errors.go declares no sentinels")
	}
	for name := range declared {
		if !inTable[name] {
			t.Errorf("vprobe.%s has no statusTable row, so it falls through to 500", name)
		}
	}
	for name := range inTable {
		if !declared[name] {
			t.Errorf("statusTable lists vprobe.%s, which errors.go does not declare", name)
		}
	}
	for _, row := range statusTable {
		if got := statusFor(fmt.Errorf("wrapped: %w", row.Sentinel)); got != row.Status || got == http.StatusInternalServerError {
			t.Errorf("%v maps to %d, want its deliberate row status %d", row.Sentinel, got, row.Status)
		}
	}
	if got := statusFor(vprobe.ErrTracingAttached); got != http.StatusConflict {
		t.Errorf("ErrTracingAttached = %d, want 409", got)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Errorf("DeadlineExceeded = %d, want 504", got)
	}
	if got := statusFor(context.Canceled); got != StatusClientClosedRequest {
		t.Errorf("Canceled = %d, want 499", got)
	}
	if got := statusFor(errors.New("novel")); got != http.StatusInternalServerError {
		t.Errorf("unmapped error = %d, want 500", got)
	}
}

// hungryScenario never finishes on its own, so only cancellation or the
// server timeout can end it. The hungry loop alone simulates its hour in
// about 0.1 s; the 16 guest-idle VCPUs wake every few milliseconds and make
// the hour about 20 s of work with events on (2-vCPU Xeon), far past every
// timeout and cancellation delay below on any plausible host.
const hungryScenario = `{
  "horizon": "3600s",
  "vms": [{"name": "vm0", "memory_mb": 1024, "vcpus": 1,
           "apps": [{"name": "hungry"}]},
          {"name": "idle", "memory_mb": 1024, "vcpus": 16, "fill_guest_idle": true}]
}`

// TestCancelFreesSlot is the ISSUE's leak check: with a single worker
// slot, a cancelled request must release the slot (and its goroutines) so
// the next run can proceed.
func TestCancelFreesSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	_, ts := testServer(t, Options{MaxConcurrent: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/simulations", strings.NewReader(hungryScenario))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if rerr == nil {
			resp.Body.Close()
		}
		errc <- rerr
	}()
	// Give the hungry run a moment to occupy the only slot, then abandon
	// the request.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if rerr := <-errc; rerr == nil {
		t.Fatal("cancelled request returned a response")
	}

	// The slot must come free: a short run completes rather than queueing
	// behind a leaked hungry simulation.
	done := make(chan struct{})
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/simulations", scenarioJSON)
		if status != http.StatusOK || body["state"] != string(StateDone) {
			t.Errorf("post-cancel run: status %d, body %v", status, body)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slot never freed after cancellation")
	}

	// Goroutines must settle back near the baseline — the cancelled
	// simulation may take a moment to observe ctx and unwind.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+5 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestRunTimeout pins the server-enforced cap: a hungry run against a
// tiny RunTimeout fails with 504 rather than holding the slot forever.
func TestRunTimeout(t *testing.T) {
	_, ts := testServer(t, Options{RunTimeout: 200 * time.Millisecond})
	status, body := postJSON(t, ts.URL+"/v1/simulations", hungryScenario)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", status, body)
	}
	if body["state"] != string(StateCancelled) {
		t.Errorf("state = %v, want cancelled", body["state"])
	}
}

// hungryCluster is a cluster run far longer than any test's RunTimeout,
// on two workers so its host advances take harness.Map's parallel path.
const hungryCluster = `{
  "hosts": 64, "horizon": "3600s", "workers": 2, "arrivals_per_second": 5
}`

// TestTimedOutRunIsNotCached pins what a cut-short run leaves behind, on
// both POST endpoints: the 504 it answers enters nothing in the result
// cache, its goroutines unwind, and a re-POST of the same spec is a miss
// that simulates again under a fresh run.
func TestTimedOutRunIsNotCached(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulations", hungryScenario},
		{"/v1/clusters", hungryCluster},
	} {
		before := runtime.NumGoroutine()
		s, ts := testServer(t, Options{RunTimeout: 50 * time.Millisecond})
		var ids []any
		for i := 0; i < 2; i++ {
			status, body := postJSON(t, ts.URL+tc.path, tc.body)
			if status != http.StatusGatewayTimeout || body["state"] != string(StateCancelled) {
				t.Fatalf("%s post %d: status %d, body %v; want a cancelled run and 504",
					tc.path, i, status, body)
			}
			if _, hit := body["cached"]; hit {
				t.Fatalf("%s post %d answered from the cache after a 504: %v", tc.path, i, body)
			}
			ids = append(ids, body["id"])
		}
		if ids[0] == ids[1] {
			t.Fatalf("%s: the re-POST reused run %v instead of simulating again", tc.path, ids[0])
		}
		s.runs.mu.Lock()
		cached := len(s.runs.byKey)
		s.runs.mu.Unlock()
		if cached != 0 {
			t.Fatalf("%s: %d cache entries after two timed-out runs", tc.path, cached)
		}
		s.metrics.mu.Lock()
		hits, misses := s.metrics.cacheHit.Value(), s.metrics.cacheMiss.Value()
		s.metrics.mu.Unlock()
		if hits != 0 || misses != 2 {
			t.Fatalf("%s: %v cache hits and %v misses, want 0 and 2", tc.path, hits, misses)
		}
		ts.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Errorf("%s: goroutines: %d before, %d after two timed-out runs", tc.path, before, n)
		}
	}
}

// TestAsyncPolling drives the ?async=1 path: 202 with an ID, then poll to
// completion.
func TestAsyncPolling(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/simulations?async=1", scenarioJSON)
	if status != http.StatusAccepted {
		t.Fatalf("async POST status = %d", status)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("async POST returned no id: %v", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, b := getBody(t, ts.URL+"/v1/runs/"+id)
		if st != http.StatusOK {
			t.Fatalf("poll status = %d", st)
		}
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if State(v["state"].(string)).Terminal() {
			if v["state"] != string(StateDone) {
				t.Fatalf("async run ended %v: %v", v["state"], v["error"])
			}
			if v["report"] == "" {
				t.Fatal("async run finished without a report")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelEndpoint cancels an async run via DELETE.
func TestCancelEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/simulations?async=1", hungryScenario)
	if status != http.StatusAccepted {
		t.Fatalf("async POST status = %d", status)
	}
	id, _ := body["id"].(string)

	// Wait until it actually starts before cancelling.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, b := getBody(t, ts.URL+"/v1/runs/"+id)
		if strings.Contains(string(b), string(StateRunning)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	for {
		_, b := getBody(t, ts.URL+"/v1/runs/"+id)
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if State(v["state"].(string)).Terminal() {
			if v["state"] != string(StateCancelled) {
				t.Fatalf("cancelled run ended %v", v["state"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never observed the cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsFollowLiveRun asserts the JSONL stream follows an in-flight
// run and terminates when the run does, and that the followed bytes are
// the run's event stream: the same as a read after completion and as the
// bytes pinned for the spec (a scenario) or rendered by RunCluster with an
// Event.AppendJSON sink (a cluster run).
func TestEventsFollowLiveRun(t *testing.T) {
	var sp spec.ClusterV1
	if err := json.Unmarshal([]byte(clusterJSON), &sp); err != nil {
		t.Fatal(err)
	}
	var clusterEvents []byte
	if _, err := vprobe.RunCluster(context.Background(), sp.Normalize(), vprobe.CompileOptions{
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			clusterEvents = append(ev.AppendJSON(clusterEvents), '\n')
		}),
	}); err != nil {
		t.Fatal(err)
	}
	scenarioEvents, err := os.ReadFile(filepath.Join("testdata", "served_events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, spec string
		want             []byte
	}{
		{"scenario", "/v1/simulations", servedScenarioJSON, scenarioEvents},
		{"cluster", "/v1/clusters", clusterJSON, clusterEvents},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ts := testServer(t, Options{})
			status, body := postJSON(t, ts.URL+c.path+"?async=1", c.spec)
			if status != http.StatusAccepted {
				t.Fatalf("async POST status = %d", status)
			}
			id, _ := body["id"].(string)
			st, followed := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, id))
			if st != http.StatusOK {
				t.Fatalf("events status = %d", st)
			}
			if len(followed) == 0 {
				t.Fatal("event stream empty")
			}
			_, run := getBody(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, id))
			if !strings.Contains(string(run), `"state": "done"`) {
				t.Fatalf("run not done after its stream ended: %s", run)
			}
			_, after := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, id))
			if !bytes.Equal(followed, after) {
				t.Error("followed stream differs from a read after completion")
			}
			if !bytes.Equal(followed, c.want) {
				t.Errorf("followed stream differs from the expected events (%d vs %d bytes)", len(followed), len(c.want))
			}
		})
	}
}

// TestCapacity runs the what-if endpoint on a small fleet.
func TestCapacity(t *testing.T) {
	_, ts := testServer(t, Options{})
	st, b := getBody(t, ts.URL+"/v1/capacity?hosts=2&horizon=30s&rate=0.1&factor=2&workers=1")
	if st != http.StatusOK {
		t.Fatalf("capacity status = %d: %s", st, b)
	}
	var v struct {
		Factor   float64 `json:"factor"`
		Absorbs  bool    `json:"absorbs"`
		Baseline struct {
			Rate   float64 `json:"arrivals_per_second"`
			RunID  string  `json:"run_id"`
			Cached bool    `json:"cached"`
		} `json:"baseline"`
		Scaled struct {
			Rate  float64 `json:"arrivals_per_second"`
			RunID string  `json:"run_id"`
		} `json:"scaled"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.Factor != 2 || v.Baseline.Rate != 0.1 || v.Scaled.Rate != 0.2 {
		t.Fatalf("capacity echoed wrong knobs: %+v", v)
	}
	if v.Baseline.RunID == "" || v.Scaled.RunID == "" {
		t.Fatal("capacity legs carry no run IDs")
	}

	// A repeat of the same question must be answered entirely from cache.
	st, b2 := getBody(t, ts.URL+"/v1/capacity?hosts=2&horizon=30s&rate=0.1&factor=2&workers=1")
	if st != http.StatusOK {
		t.Fatalf("repeat capacity status = %d", st)
	}
	if !strings.Contains(string(b2), `"cached": true`) {
		t.Error("repeat capacity query did not hit the cache")
	}

	// An omitted rate is the default rate, and the scaled leg scales it.
	st, b3 := getBody(t, ts.URL+"/v1/capacity?hosts=2&horizon=30s&factor=2&workers=1")
	if st != http.StatusOK {
		t.Fatalf("default-rate capacity status = %d: %s", st, b3)
	}
	if err := json.Unmarshal(b3, &v); err != nil {
		t.Fatal(err)
	}
	if v.Baseline.Rate != 0.35 || v.Scaled.Rate != 0.7 {
		t.Fatalf("default-rate capacity legs ran at %v and %v, want 0.35 and 0.7", v.Baseline.Rate, v.Scaled.Rate)
	}

	// Bad knobs are 400s, the scaled leg's included: neither leg runs.
	for _, q := range []string{"factor=0", "rate=lots", "horizon=later", "hosts=two",
		"factor=-1", "factor=Inf", "factor=NaN", "rate=NaN", "rate=Inf", "rate=1e308",
		"max_rejection=NaN", "max_rejection=2", "hosts=100000000",
		"hosts=2&horizon=30s&rate=1000&factor=1e6"} {
		st, _ := getBody(t, ts.URL+"/v1/capacity?"+q)
		if st != http.StatusBadRequest {
			t.Errorf("capacity?%s = %d, want 400", q, st)
		}
	}
}

// TestMetricsEndpoint checks /metrics is valid Prometheus exposition and
// carries the serve counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	if st, _ := postJSON(t, ts.URL+"/v1/simulations", scenarioJSON); st != http.StatusOK {
		t.Fatalf("seed POST status = %d", st)
	}
	postJSON(t, ts.URL+"/v1/simulations", scenarioJSON) // cache hit

	st, body := getBody(t, ts.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics status = %d", st)
	}
	series, _, err := telemetry.ValidateExposition(body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	if series == 0 {
		t.Fatal("/metrics exposed no series")
	}
	for _, want := range []string{
		`vprobe_serve_requests_total{endpoint="simulations"} 2`,
		`vprobe_serve_runs_total{state="done"} 1`,
		"vprobe_serve_cache_hits_total 1",
		"vprobe_serve_cache_misses_total 1",
		"vprobe_serve_runs_active 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthz pins the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Options{})
	st, b := getBody(t, ts.URL+"/healthz")
	if st != http.StatusOK || !strings.Contains(string(b), "true") {
		t.Fatalf("healthz = %d %s", st, b)
	}
}

// TestCancelledQueuedRunFinishesOnce covers a run cancelled while queued
// whose request context then ends before it gets a slot: execute finishes
// it a second time, which must relabel it, not close its done channel
// again.
func TestCancelledQueuedRunFinishesOnce(t *testing.T) {
	rn := newRun("run-1", "scenario", "k")
	if !rn.requestCancel() {
		t.Fatal("queued run refused cancellation")
	}
	rn.finish(StateCancelled, context.Canceled)
	if !isClosed(rn.done) || rn.state != StateCancelled {
		t.Fatalf("state %s, done closed %v", rn.state, isClosed(rn.done))
	}
}
