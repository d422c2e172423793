package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"vprobe"
	"vprobe/internal/telemetry"
)

// tracedClusterJSON is clusterJSON with the flight recorder on.
const tracedClusterJSON = `{
  "hosts": 2, "horizon": "30s", "workers": 1, "trace": true
}`

// TestSpansEndpoint runs a traced cluster and exercises both span export
// formats plus the format validation.
func TestSpansEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, run := postJSON(t, ts.URL+"/v1/clusters", tracedClusterJSON)
	if status != http.StatusOK {
		t.Fatalf("POST status = %d, body %v", status, run)
	}
	id, _ := run["id"].(string)

	status, raw := getBody(t, fmt.Sprintf("%s/v1/runs/%s/spans", ts.URL, id))
	if status != http.StatusOK {
		t.Fatalf("GET spans = %d: %s", status, raw)
	}
	spans, err := telemetry.ReadSpans(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run exported no spans")
	}

	status, chrome := getBody(t, fmt.Sprintf("%s/v1/runs/%s/spans?format=chrome", ts.URL, id))
	if status != http.StatusOK {
		t.Fatalf("GET chrome spans = %d", status)
	}
	if _, err := telemetry.ValidateChromeTrace(chrome); err != nil {
		t.Fatal(err)
	}

	status, _ = getBody(t, fmt.Sprintf("%s/v1/runs/%s/spans?format=bogus", ts.URL, id))
	if status != http.StatusBadRequest {
		t.Fatalf("GET spans?format=bogus = %d, want 400", status)
	}
}

// TestExplainEndpoint answers provenance queries over a traced scenario
// and a traced cluster.
func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, run := postJSON(t, ts.URL+"/v1/clusters", tracedClusterJSON)
	if status != http.StatusOK {
		t.Fatalf("POST status = %d", status)
	}
	id, _ := run["id"].(string)
	explainURL := fmt.Sprintf("%s/v1/runs/%s/explain", ts.URL, id)

	// No ?vm: the VM list and summary.
	status, body := getBody(t, explainURL)
	if status != http.StatusOK {
		t.Fatalf("GET explain = %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte(`"vms"`)) || !bytes.Contains(body, []byte("vm000")) {
		t.Fatalf("explain index missing vms: %s", body)
	}

	for _, q := range []string{"", "q=why", "q=rejected", "q=preempted", "q=timeline"} {
		url := explainURL + "?vm=vm000"
		if q != "" {
			url += "&" + q
		}
		status, body := getBody(t, url)
		if status != http.StatusOK {
			t.Fatalf("GET explain %s = %d: %s", q, status, body)
		}
		if !bytes.Contains(body, []byte(`"answer"`)) {
			t.Fatalf("explain %s carries no answer: %s", q, body)
		}
	}

	// The why answer must carry the per-plugin breakdown.
	status, body = getBody(t, explainURL+"?vm=vm000&q=why")
	if status != http.StatusOK || !bytes.Contains(body, []byte("filters")) {
		t.Fatalf("explain why lacks the plugin breakdown (%d): %s", status, body)
	}

	// Errors: unknown vm is 404, why-not without host and unknown q are 400.
	if status, _ := getBody(t, explainURL+"?vm=ghost"); status != http.StatusNotFound {
		t.Fatalf("explain unknown vm = %d, want 404", status)
	}
	if status, _ := getBody(t, explainURL+"?vm=vm000&q=why-not"); status != http.StatusBadRequest {
		t.Fatalf("explain why-not without host = %d, want 400", status)
	}
	if status, _ := getBody(t, explainURL+"?vm=vm000&q=frob"); status != http.StatusBadRequest {
		t.Fatalf("explain unknown q = %d, want 400", status)
	}
}

// TestScenarioTraceSpans covers the single-host path: a traced scenario
// exports domain lifecycle spans.
func TestScenarioTraceSpans(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, run := postJSON(t, ts.URL+"/v1/simulations", tracedScenarioJSON)
	if status != http.StatusOK {
		t.Fatalf("POST status = %d, body %v", status, run)
	}
	id, _ := run["id"].(string)
	status, raw := getBody(t, fmt.Sprintf("%s/v1/runs/%s/spans", ts.URL, id))
	if status != http.StatusOK {
		t.Fatalf("GET spans = %d", status)
	}
	spans, err := telemetry.ReadSpans(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[telemetry.SpanKind]bool{}
	for i := range spans {
		kinds[spans[i].Kind] = true
	}
	if !kinds[telemetry.SpanRun] || !kinds[telemetry.SpanDomain] {
		t.Fatalf("scenario spans missing run/domain kinds: %v", kinds)
	}
}

// TestUntracedRunSpans404 pins the cache-key contract around tracing: the
// trace fields are excluded from the determinism key, so a traced re-POST
// of an untraced spec hits the untraced cache entry — and its span
// endpoints answer 404 with an actionable message, not an empty stream.
func TestUntracedRunSpans404(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, run := postJSON(t, ts.URL+"/v1/clusters", clusterJSON)
	if status != http.StatusOK {
		t.Fatalf("POST status = %d", status)
	}
	id, _ := run["id"].(string)
	for _, path := range []string{"spans", "explain"} {
		status, body := getBody(t, fmt.Sprintf("%s/v1/runs/%s/%s", ts.URL, id, path))
		if status != http.StatusNotFound {
			t.Fatalf("GET %s on untraced run = %d, want 404", path, status)
		}
		if !bytes.Contains(body, []byte(`\"trace\": true`)) {
			t.Fatalf("%s 404 lacks the actionable hint: %s", path, body)
		}
	}

	// Same spec with trace on: cache hit, still the untraced entry.
	status, second := postJSON(t, ts.URL+"/v1/clusters", tracedClusterJSON)
	if status != http.StatusOK {
		t.Fatalf("traced re-POST status = %d", status)
	}
	if cached, _ := second["cached"].(bool); !cached {
		t.Fatal("trace flag changed the cache key")
	}
	id2, _ := second["id"].(string)
	if id2 != id {
		t.Fatalf("traced re-POST ran fresh: %s vs %s", id2, id)
	}
	if status, _ := getBody(t, fmt.Sprintf("%s/v1/runs/%s/spans", ts.URL, id2)); status != http.StatusNotFound {
		t.Fatalf("cache-hit spans = %d, want 404 (cached result was untraced)", status)
	}
}

// tracedRuns are the traced specs the served-span tests POST, one per
// front door, each with the library run it must match.
var tracedRuns = []struct {
	path, body string
	run        func(t *testing.T, body string) *vprobe.Tracing
}{
	{"/v1/clusters", tracedClusterJSON, func(t *testing.T, body string) *vprobe.Tracing {
		var sp vprobe.ClusterSpec
		decodeStrict(t, body, &sp)
		rep, err := vprobe.RunCluster(context.Background(), sp, vprobe.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Tracing()
	}},
	{"/v1/simulations", tracedScenarioJSON, func(t *testing.T, body string) *vprobe.Tracing {
		var sp vprobe.ScenarioSpec
		decodeStrict(t, body, &sp)
		sim, horizon, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
		return sim.Tracing()
	}},
}

// tracedScenarioJSON is scenarioJSON with the flight recorder on.
var tracedScenarioJSON = strings.Replace(scenarioJSON, `"scheduler": "vprobe",`,
	`"scheduler": "vprobe", "trace": true,`, 1)

func decodeStrict(t *testing.T, body string, dst any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// postTraced POSTs a traced spec and returns its run's URL.
func postTraced(t *testing.T, base, path, body string) string {
	t.Helper()
	status, run := postJSON(t, base+path, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s = %d: %v", path, status, run)
	}
	return fmt.Sprintf("%s/v1/runs/%s", base, run["id"])
}

// TestServedSpansMatchLibrary: a traced run's served JSONL and Chrome
// trace are the bytes Tracing.WriteSpans and WriteChromeTrace write for
// the same spec run through the library.
func TestServedSpansMatchLibrary(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, tr := range tracedRuns {
		runURL := postTraced(t, ts.URL, tr.path, tr.body)
		tracing := tr.run(t, tr.body)
		for _, f := range []struct {
			query string
			write func(*vprobe.Tracing, io.Writer) error
		}{
			{"", (*vprobe.Tracing).WriteSpans},
			{"?format=chrome", (*vprobe.Tracing).WriteChromeTrace},
		} {
			status, got := getBody(t, runURL+"/spans"+f.query)
			if status != http.StatusOK {
				t.Fatalf("GET %s/spans%s = %d", tr.path, f.query, status)
			}
			var want bytes.Buffer
			if err := f.write(tracing, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s spans%s: served %d bytes differ from the library's %d", tr.path, f.query, len(got), want.Len())
			}
		}
	}
}

// TestServedExplainMatchesSpanFile: every explain query over every
// recorded VM (why-not against every recorded host) answers as a
// SpanIndex read back from the served JSONL does, errors included.
func TestServedExplainMatchesSpanFile(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, tr := range tracedRuns {
		runURL := postTraced(t, ts.URL, tr.path, tr.body)
		_, raw := getBody(t, runURL+"/spans")
		spans, err := telemetry.ReadSpans(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ix := telemetry.NewSpanIndex(spans)
		hosts := []string{""}
		seen := map[string]bool{}
		for i := range spans {
			if h := spans[i].Host; h != "" && !seen[h] {
				seen[h] = true
				hosts = append(hosts, h)
			}
		}

		var list struct {
			VMs     []string `json:"vms"`
			Summary string   `json:"summary"`
		}
		_, body := getBody(t, runURL+"/explain")
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(list.VMs, ix.VMs()) || list.Summary != ix.Summary() || len(list.VMs) == 0 {
			t.Fatalf("%s explain lists %v (%q), the span file %v (%q)", tr.path, list.VMs, list.Summary, ix.VMs(), ix.Summary())
		}
		answered := 0
		for _, vm := range ix.VMs() {
			for _, q := range strings.Split(telemetry.ExplainQueries, ", ") {
				for _, host := range hosts {
					if q != "why-not" && host != "" {
						continue
					}
					want, wantErr := ix.Explain(q, vm, host)
					v := url.Values{"vm": {vm}, "q": {q}, "host": {host}}
					status, body := getBody(t, runURL+"/explain?"+v.Encode())
					var got struct {
						Answer string `json:"answer"`
						Error  string `json:"error"`
					}
					if err := json.Unmarshal(body, &got); err != nil {
						t.Fatal(err)
					}
					switch {
					case wantErr == nil:
						if status != http.StatusOK || got.Answer != want {
							t.Errorf("%s q=%s vm=%s host=%s: %d %q, the span file answers %q", tr.path, q, vm, host, status, got.Answer, want)
						}
						answered++
					case errors.Is(wantErr, telemetry.ErrExplainQuery):
						if status != http.StatusBadRequest {
							t.Errorf("%s q=%s vm=%s host=%s: %d, want 400 (%v)", tr.path, q, vm, host, status, wantErr)
						}
					default:
						if status != http.StatusNotFound || got.Error != wantErr.Error() {
							t.Errorf("%s q=%s vm=%s host=%s: %d %q, the span file fails %q", tr.path, q, vm, host, status, got.Error, wantErr)
						}
					}
				}
			}
		}
		t.Logf("%s: %d VMs, %d hosts, %d queries answered", tr.path, len(list.VMs), len(hosts)-1, answered)
		if answered == 0 {
			t.Errorf("%s: no explain query answered", tr.path)
		}
	}
}
