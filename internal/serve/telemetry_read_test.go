package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/telemetry"
)

// TestTelemetryReadsRace GETs the telemetry, metrics, spans (JSONL and
// Chrome) and explain listing of a done traced scenario run and a done
// traced two-host cluster run from several goroutines while other runs
// execute — scenarios under every scheduler and clusters of two to four
// hosts, which extend the interned series layouts the done runs share.
// Every read must return the bytes of the first read; run it under -race.
func TestTelemetryReadsRace(t *testing.T) {
	_, ts := testServer(t, Options{MaxConcurrent: 2})
	var urls []string
	for _, post := range tracedRuns {
		status, v := postJSON(t, ts.URL+post.path, post.body)
		if status != http.StatusOK {
			t.Fatalf("POST %s: status %d: %v", post.path, status, v)
		}
		for _, artifact := range []string{"telemetry", "metrics", "spans", "spans?format=chrome", "explain"} {
			urls = append(urls, fmt.Sprintf("%s/v1/runs/%s/%s", ts.URL, v["id"], artifact))
		}
	}
	first := make([][]byte, len(urls))
	for i, u := range urls {
		status, b := getBody(t, u)
		if status != http.StatusOK || len(b) == 0 {
			t.Fatalf("GET %s: status %d, %d bytes", u, status, len(b))
		}
		first[i] = b
	}

	get := func(u string) ([]byte, error) {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	post := func(path, body string) error {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	running := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(running)
		for i, sched := range vprobe.Schedulers() {
			sc := strings.Replace(scenarioJSON, `"vprobe"`, fmt.Sprintf("%q, \"seed\": %d", sched, i+2), 1)
			cl := fmt.Sprintf(`{"hosts": %d, "horizon": "10s", "workers": 1, "seed": %d}`, 2+i%3, i+2)
			for _, p := range [][2]string{{"/v1/simulations", sc}, {"/v1/clusters", cl}} {
				if err := post(p[0], p[1]); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-running:
					if n >= 8 {
						return
					}
				default:
				}
				i := (n + r) % len(urls)
				b, err := get(urls[i])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, first[i]) {
					errs <- fmt.Errorf("read %d of %s differs from the first read", n, urls[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInternTableStopsGrowing POSTs one spec shape 64 times, each with its
// own seed, and checks that only the first run added series descriptors
// or layouts to the process's intern table.
func TestInternTableStopsGrowing(t *testing.T) {
	h := New(Options{MaxConcurrent: 1}).Handler()
	post := func(seed int) {
		body, err := json.Marshal(vprobe.ScenarioSpec{
			Version:   "v1",
			Scheduler: string(vprobe.SchedulerBRM),
			Seed:      uint64(seed),
			Horizon:   vprobe.SpecDuration(300 * time.Millisecond),
			VMs: []vprobe.VMSpec{
				{Name: "vm1", MemoryMB: 4096, VCPUs: 4, Apps: []vprobe.AppSpec{{Name: "soplex"}, {Name: "mcf"}}},
				{Name: "vm2", MemoryMB: 2048, VCPUs: 4, Apps: []vprobe.AppSpec{{Name: "lu"}}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulations", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, rec.Code, rec.Body)
		}
	}
	post(1)
	descs, layouts := telemetry.Interned()
	for seed := 2; seed <= 64; seed++ {
		post(seed)
	}
	if d, l := telemetry.Interned(); d != descs || l != layouts {
		t.Fatalf("63 more runs of one shape grew the intern table from %d descriptors, %d layouts to %d, %d",
			descs, layouts, d, l)
	}
}
