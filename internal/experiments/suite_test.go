package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vprobe/internal/harness"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// suiteOpts is a cheap but non-trivial configuration: small scale, one
// seed, two schedulers.
func suiteOpts() Options {
	return Options{
		Scale:      0.06,
		Repeats:    1,
		Seed:       7,
		Schedulers: []sched.Kind{sched.KindCredit, sched.KindVProbe},
	}
}

// suiteFingerprint renders every result to its full textual and CSV form,
// so any divergence — values, ordering, formatting — shows up.
func suiteFingerprint(t *testing.T, items []SuiteItem) string {
	t.Helper()
	var b strings.Builder
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Experiment.ID, item.Err)
		}
		b.WriteString(item.Result.String())
		if err := item.Result.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestSuiteDeterministicAcrossWorkers asserts the tentpole guarantee: the
// same root seed produces byte-identical output at 1, 4, and GOMAXPROCS
// workers.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"fig3", "table3"}
	counts := []int{1, 4, 0} // 0 = GOMAXPROCS
	var want string
	for i, w := range counts {
		opts := suiteOpts()
		opts.Workers = w
		items, err := RunSuite(context.Background(), ids, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := suiteFingerprint(t, items)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d output differs from workers=%d", w, counts[0])
		}
	}
}

// TestSuiteOrderAndEvents asserts items come back in request order and the
// progress stream brackets the run.
func TestSuiteOrderAndEvents(t *testing.T) {
	var mu atomic.Int64
	kinds := make(chan harness.EventKind, 256)
	opts := suiteOpts()
	opts.Workers = 2
	opts.Events = harness.SinkFunc(func(ev harness.Event) {
		mu.Add(1)
		select {
		case kinds <- ev.Kind:
		default:
		}
	})
	ids := []string{"table3", "fig3"} // deliberately not sorted
	items, err := RunSuite(context.Background(), ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Experiment.ID != "table3" || items[1].Experiment.ID != "fig3" {
		t.Fatalf("items out of request order: %v, %v",
			items[0].Experiment.ID, items[1].Experiment.ID)
	}
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Experiment.ID, item.Err)
		}
		if item.Result == nil || item.Result.ID != item.Experiment.ID {
			t.Fatalf("%s: bad result %+v", item.Experiment.ID, item.Result)
		}
		if item.Wall <= 0 {
			t.Errorf("%s: no wall time recorded", item.Experiment.ID)
		}
		if item.SimTime <= 0 {
			t.Errorf("%s: no simulated time accumulated", item.Experiment.ID)
		}
	}
	close(kinds)
	seen := map[harness.EventKind]int{}
	for k := range kinds {
		seen[k]++
	}
	if seen[harness.EventSuiteStarted] != 1 || seen[harness.EventSuiteFinished] != 1 {
		t.Errorf("suite events wrong: %v", seen)
	}
	if seen[harness.EventExperimentStarted] != 2 || seen[harness.EventExperimentFinished] != 2 {
		t.Errorf("experiment events wrong: %v", seen)
	}
	if seen[harness.EventScenarioFinished] == 0 {
		t.Error("no scenario events emitted")
	}
}

func TestSuiteUnknownID(t *testing.T) {
	if _, err := RunSuite(context.Background(), []string{"fig99"}, suiteOpts()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestSuiteCancellation cancels mid-run and asserts a prompt return, per-
// item context errors for whatever did not finish, and no leaked worker
// goroutines.
func TestSuiteCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	opts := suiteOpts()
	opts.Workers = 2
	// Cancel as soon as the first simulation inside any experiment reports
	// completion, so cancellation lands while work is genuinely in flight.
	var once atomic.Bool
	opts.Events = harness.SinkFunc(func(ev harness.Event) {
		if ev.Kind == harness.EventScenarioFinished && once.CompareAndSwap(false, true) {
			cancel()
		}
	})
	defer cancel()

	start := time.Now()
	items, err := RunSuite(ctx, []string{"fig3", "table3", "fig1"}, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for _, item := range items {
		if item.Experiment == nil {
			t.Fatal("item missing its experiment")
		}
		if item.Result == nil && item.Err == nil {
			t.Errorf("%s: neither result nor error after cancellation",
				item.Experiment.ID)
		}
		if item.Err != nil && !errors.Is(item.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", item.Experiment.ID, item.Err)
		}
	}

	// Workers must have exited: poll because goroutine teardown is async.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSuiteTimeout asserts opts.Timeout caps one experiment without
// failing its siblings.
func TestSuiteTimeout(t *testing.T) {
	opts := suiteOpts()
	opts.Workers = 1
	opts.Timeout = time.Nanosecond // everything times out instantly
	items, err := RunSuite(context.Background(), []string{"fig3"}, opts)
	if err != nil {
		t.Fatalf("suite-level err = %v, want per-item errors only", err)
	}
	if items[0].Err == nil || !errors.Is(items[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", items[0].Err)
	}
}

// TestExperimentRunContextCancelled asserts the public RunContext path
// propagates cancellation.
func TestExperimentRunContextCancelled(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, suiteOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSuiteReproducesSmokeDigests runs every experiment through one
// RunSuite queue, where they share cells, and asserts each result renders
// to the digest pinned for the experiment run standalone: a shared cell
// gives the bytes its own run would.
func TestSuiteReproducesSmokeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64")
	}
	want := pinnedSmokeDigests(t)
	for _, workers := range []int{1, 4} {
		opts := smokeOpts()
		opts.Workers = workers
		items, err := RunSuite(context.Background(), nil, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, item := range items {
			id := item.Experiment.ID
			if item.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, id, item.Err)
			}
			if got := digestOf(item.Result); got != want[id] {
				t.Errorf("workers=%d: %s digest %s, pinned %s", workers, id, got, want[id])
			}
		}
	}
}

// paperBatchIDs are the experiments of the repo benchmark's paper-batch
// workload.
var paperBatchIDs = []string{"table1", "fig1", "fig3", "fig4", "fig5", "fig8", "table3",
	"ablate-affinity", "ablate-dynamic", "ablate-pagemig", "fournode", "sensitivity-bounds"}

// TestSuiteRunsSharedCellsOnce pins the queue's merge on the paper-batch
// set at three repeats: 231 declared cells, 205 simulations. fig1 repeats
// fig4/fig5's seed-0 Credit runs; fig4's mix Credit and vProbe runs are
// also every ablation's rows, fig8's 1 s point and the bound sweep's
// (3, 20) point. A key that merges too much changes a digest (see
// TestSuiteReproducesSmokeDigests); one that merges too little changes
// this count.
func TestSuiteRunsSharedCellsOnce(t *testing.T) {
	opts := Options{Scale: 0.01, Repeats: 3, Seed: 1, Horizon: 5 * sim.Second, Workers: 2}
	declared := 0
	for _, id := range paperBatchIDs {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		declared += len(e.plan(opts).cells)
	}
	var sims atomic.Int64
	opts.Events = harness.SinkFunc(func(ev harness.Event) {
		if ev.Kind == harness.EventScenarioFinished {
			sims.Add(1)
		}
	})
	items, err := RunSuite(context.Background(), paperBatchIDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Experiment.ID, item.Err)
		}
	}
	if declared != 231 || sims.Load() != 205 {
		t.Fatalf("declared %d cells and ran %d simulations, want 231 and 205", declared, sims.Load())
	}
}

// TestCellSpecsEncodeEveryField guards the key contract: a cell's key is
// its spec's Key, a hash of the spec's normalized JSON encoding, so every
// field the lowering may read has to reach that encoding. It walks each
// spec type any experiment declares (spec.ScenarioV1 and spec.ClusterV1)
// and rejects unexported or JSON-skipped fields below it; a type with its
// own MarshalJSON vouches for itself.
func TestCellSpecsEncodeEveryField(t *testing.T) {
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] || typ.Implements(marshaler) {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path, typ.Elem())
		case reflect.Map:
			walk(path, typ.Key())
			walk(path, typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() || f.Tag.Get("json") == "-" {
					t.Errorf("%s.%s is left out of the cell key", path, f.Name)
					continue
				}
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s (%s) cannot be encoded into the cell key", path, typ)
		}
	}
	specs := 0
	for _, e := range All() {
		for _, c := range e.plan(smokeOpts()).cells {
			typ := reflect.TypeOf(c.Spec)
			if !seen[typ] {
				specs++
				walk(typ.Name(), typ)
			}
		}
	}
	if specs < 2 {
		t.Fatalf("walked %d spec types, want every one the experiments declare", specs)
	}
}
