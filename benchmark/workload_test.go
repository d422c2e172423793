package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/sim"
)

// Tiny versions of the four workloads: the same code paths at sizes that
// finish in about a second each.
var (
	tinyPaper = paperConfig{
		name:    "tiny-paper",
		ids:     []string{"table1", "fig3", "table3"},
		scale:   0.05,
		workers: 2,
		probe: probeConfig{
			rows:    paperBatch.probe.rows,
			horizon: 2 * time.Second,
		},
		setupReps: 2,
	}
	tinyFleet = func() fleetConfig {
		cfg := fleetChurn
		cfg.name = "tiny-fleet"
		cfg.cluster.Hosts = 16
		cfg.cluster.ArrivalsPerSecond = 2
		cfg.cluster.Horizon = 20 * sim.Second
		cfg.setupReps = 2
		cfg.checkGolden = false
		return cfg
	}()
	tinyServe = func() serveConfig {
		cfg := serveMix
		cfg.name = "tiny-serve"
		cfg.pool = 8
		cfg.roundRequests = 40
		cfg.loRate, cfg.hiRate = 40, 80
		cfg.phase = 250 * time.Millisecond
		cfg.specHorizon = 100 * time.Millisecond
		cfg.setupReps = 2
		return cfg
	}()
)

func tinyRun(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.01, trace: trace, traceDir: t.TempDir()}
}

// checkOutcome fails the test unless the run was correct and its output
// line carries every metric of defs.
func checkOutcome(t *testing.T, res *result, defs []metricDef, strict bool) {
	t.Helper()
	for _, p := range res.problems {
		t.Errorf("problem: %s", p)
	}
	if !res.correct() || res.attempted == 0 {
		t.Fatalf("correct = %v after %d attempted, %d failed", res.correct(), res.attempted, res.failed)
	}
	res.values["peak_rss_mb"] = 1
	line, err := renderResult(res, defs, strict)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(defs) {
		t.Fatalf("output line %s", line)
	}
}

// Each workload runs untraced through the code path the command uses;
// the traced paths of the paper and serve workloads run here too, the
// cluster's in TestTracedRunsAreTransparent.
func TestWorkloadsSmoke(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
		run   func(context.Context, runConfig) (*result, error)
	}{
		{"paper", false, func(ctx context.Context, rc runConfig) (*result, error) { return runPaper(ctx, tinyPaper, rc) }},
		{"paper", true, func(ctx context.Context, rc runConfig) (*result, error) { return runPaper(ctx, tinyPaper, rc) }},
		{"fleet", false, func(ctx context.Context, rc runConfig) (*result, error) { return runFleet(ctx, tinyFleet, rc) }},
		{"serve", false, func(ctx context.Context, rc runConfig) (*result, error) { return runServe(ctx, tinyServe, rc) }},
		{"serve", true, func(ctx context.Context, rc runConfig) (*result, error) { return runServe(ctx, tinyServe, rc) }},
	} {
		res, err := tc.run(context.Background(), tinyRun(t, tc.trace))
		if err != nil {
			t.Fatalf("%s trace=%v: %v", tc.name, tc.trace, err)
		}
		if tc.trace {
			checkOutcome(t, res, perLayer, false)
			if res.values["trace.overhead_ratio"] <= 0 {
				t.Errorf("%s: no trace overhead measured", tc.name)
			}
		} else {
			checkOutcome(t, res, endToEnd, true)
		}
	}
}

// The timing wrappers must change no simulated result: the probe and the
// traced cluster run report a failed check when their timed and plain
// runs differ.
func TestTracedRunsAreTransparent(t *testing.T) {
	res := newResult()
	st, err := runProbe(context.Background(), tinyPaper.probe, 5, newTracer(), 0, res)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("probe: %v", res.problems)
	}
	if st.pick.calls == 0 || st.dispatches == 0 || st.events == 0 {
		t.Fatalf("probe measured nothing: %+v", st)
	}

	fleet, err := runFleet(context.Background(), tinyFleet, tinyRun(t, true))
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, fleet, perLayer, false)
	if fleet.values["cluster.filter.calls"] == 0 || fleet.values["cluster.placed"] == 0 {
		t.Fatalf("traced cluster measured nothing: %v", fleet.values)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	cfg := serveMix
	phase := 2 * time.Second
	a, err := buildSchedule(7, cfg, openCounts(cfg, phase), phase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(7, cfg, openCounts(cfg, phase), phase)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	c, err := buildSchedule(8, cfg, openCounts(cfg, phase), phase)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Fatal("different seeds drew the same schedule")
	}

	counts := [2]int{}
	keys := map[string]bool{}
	for i, rq := range a.reqs {
		counts[rq.phase]++
		if i > 0 && rq.due < a.reqs[i-1].due {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		if lo := time.Duration(rq.phase) * phase; rq.due < lo || rq.due >= lo+phase {
			t.Fatalf("request %d due %v outside phase %d", i, rq.due, rq.phase)
		}
		if rq.kind != kindMiss {
			if rq.spec >= cfg.pool {
				t.Fatalf("request %d reuses spec %d outside the pool", i, rq.spec)
			}
			continue
		}
		var sp vprobe.ScenarioSpec
		if err := json.Unmarshal(a.specs[rq.spec], &sp); err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("miss spec %d: %v", rq.spec, err)
		}
		if keys[sp.Key()] {
			t.Fatalf("miss spec %d repeats a cache key", rq.spec)
		}
		keys[sp.Key()] = true
	}
	if counts != [2]int{200, 400} {
		t.Fatalf("phase sizes %v, want exactly rate*phase", counts)
	}
}
