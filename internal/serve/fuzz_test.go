package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Bodies that once answered 500: scenarios whose VMs need more memory
// than the machine has failed during lowering with an error that wraps
// no sentinel.
const (
	oversizedVMJSON  = `{"vms":[{"name":"vm1","memory_mb":100000000,"vcpus":1}],"horizon":"1s"}`
	oversizedSumJSON = `{"topology":"xeon-e5620","horizon":"1s","vms":[` +
		`{"name":"vm1","memory_mb":20000,"vcpus":1},{"name":"vm2","memory_mb":20000,"vcpus":1}]}`
)

// TestOversizedScenarioIs400 checks that a scenario whose VMs do not fit
// the machine's memory is refused as a bad request, not run into a 500.
func TestOversizedScenarioIs400(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, body := range []string{oversizedVMJSON, oversizedSumJSON} {
		status, v := postJSON(t, ts.URL+"/v1/simulations", body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400 (body %v)", body, status, v)
		}
	}
}

// FuzzServePost POSTs arbitrary bodies to the three POST endpoints and
// asserts no answer is a 500: a body the spec layer accepts must run (or
// time out under the short RunTimeout, a 504), and anything else is the
// client's fault. path picks the endpoint: /v1/simulations, /v1/clusters
// or /v1/capacity, by path mod 3. The corpus holds the served specs, a
// cluster spec and the bodies that once answered 500.
func FuzzServePost(f *testing.F) {
	for _, body := range []string{servedScenarioJSON, scenarioJSON, oversizedVMJSON, oversizedSumJSON} {
		f.Add(uint8(0), []byte(body))
	}
	f.Add(uint8(1), []byte(clusterJSON))
	f.Add(uint8(2), []byte(clusterJSON))
	s := New(Options{MaxConcurrent: 1, RunTimeout: 50 * time.Millisecond})
	paths := []string{"/v1/simulations", "/v1/clusters", "/v1/capacity"}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		url := paths[int(path)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s %q: 500: %s", url, body, rec.Body.Bytes())
		}
	})
}
