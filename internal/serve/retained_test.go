package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vprobe"
)

// retainedBytesPerRun bounds the heap one cached serve-mix-shaped run
// keeps alive: its sealed event log (about 3.3 KB of varint records for
// its 325 events), its sealed telemetry (about 1.2 KB of values and
// sample rows), its exact-size result body, its registry entry and, when
// traced, its sealed span recorder. Measured at 7.2 KB on linux/amd64
// untraced and 7.9 KB traced; the bound leaves about 18% for allocator
// and toolchain drift.
const retainedBytesPerRun = 9300

// TestServedRunRetainedBytes posts distinct scenarios shaped like the
// serve-mix benchmark's (two VMs, four apps, a 0.5 s horizon), untraced
// and traced, and checks what the result cache keeps per run once the
// garbage collector has dropped everything else.
func TestServedRunRetainedBytes(t *testing.T) {
	for _, trace := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[trace], func(t *testing.T) {
			retainedPerRun(t, trace)
		})
	}
}

func retainedPerRun(t *testing.T, trace bool) {
	s := New(Options{MaxConcurrent: 1})
	h := s.Handler()
	apps := []string{"povray", "ep", "lu", "mg", "bt", "cg", "sp", "soplex", "mcf", "milc", "libquantum"}
	scheds := vprobe.Schedulers()
	post := func(i int) {
		pick := func(j int) []vprobe.AppSpec {
			return []vprobe.AppSpec{{Name: apps[(i+j)%len(apps)]}, {Name: apps[(3*i+j+1)%len(apps)]}}
		}
		body, err := json.Marshal(vprobe.ScenarioSpec{
			Version:   "v1",
			Scheduler: string(scheds[i%len(scheds)]),
			Seed:      uint64(i + 1),
			Horizon:   vprobe.SpecDuration(500 * time.Millisecond),
			Trace:     trace,
			VMs: []vprobe.VMSpec{
				{Name: "vm1", MemoryMB: 4096, VCPUs: 4, Memory: "stripe", FillGuestIdle: true, Apps: pick(0)},
				{Name: "vm2", MemoryMB: 2048, VCPUs: 4, Apps: pick(5)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulations", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("spec %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The first run pays the process's one-time setup (workload tables,
	// handler state), which is not what a cached run costs.
	post(0)
	before := heap()
	const runs = 64
	for i := 1; i <= runs; i++ {
		post(i)
	}
	after := heap()
	runtime.KeepAlive(s)
	if n := len(s.runs.byKey); n != runs+1 {
		t.Fatalf("the cache holds %d runs, want %d", n, runs+1)
	}
	per := (int64(after) - int64(before)) / runs
	t.Logf("retained %d B per cached run", per)
	if per > retainedBytesPerRun {
		t.Errorf("a cached run retains %d B, over the %d B bound", per, retainedBytesPerRun)
	}
}
