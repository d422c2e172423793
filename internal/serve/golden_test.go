package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// servedScenarioJSON has the shape of the repo benchmark's serve-mix specs:
// a 0.5 s two-VM scenario, one VM striped with guest-idle housekeeping.
const servedScenarioJSON = `{
  "version": "v1",
  "scheduler": "vprobe",
  "seed": 7,
  "horizon": "500ms",
  "vms": [
    {"name": "vm1", "memory_mb": 4096, "vcpus": 4, "memory": "stripe",
     "fill_guest_idle": true, "apps": [{"name": "soplex"}, {"name": "mcf"}]},
    {"name": "vm2", "memory_mb": 2048, "vcpus": 4,
     "apps": [{"name": "milc"}, {"name": "lu"}]}
  ]
}`

// TestServedScenarioGolden pins the bytes a served run publishes: its
// JSONL event stream, its telemetry time series and its Prometheus
// exposition. Re-bless with -update only for an intended output change.
func TestServedScenarioGolden(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/simulations", servedScenarioJSON)
	if status != http.StatusOK || body["state"] != string(StateDone) {
		t.Fatalf("POST status = %d, body %v", status, body)
	}
	id, _ := body["id"].(string)
	for _, art := range []struct{ path, file string }{
		{"events", "served_events.jsonl"},
		{"telemetry", "served_telemetry.jsonl"},
		{"metrics", "served_metrics.prom"},
	} {
		st, got := getBody(t, fmt.Sprintf("%s/v1/runs/%s/%s", ts.URL, id, art.path))
		if st != http.StatusOK {
			t.Fatalf("GET %s = %d", art.path, st)
		}
		path := filepath.Join("testdata", art.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("/%s differs from %s (re-bless with -update)", art.path, path)
		}
	}
}
