package cluster

import (
	"path/filepath"
	"strings"
	"testing"

	"vprobe/internal/golden"
	"vprobe/internal/sim"
)

// migrateCfg is the recorded-decision complement of controlPlaneCfg: a
// low-load packed cluster whose rebalancer migrates and whose descheduler
// drains hosts, so it records the migrate-start, migrate-done and
// deschedule kinds the control-plane run never reaches.
func migrateCfg() Config {
	return Config{
		Hosts:             3,
		Horizon:           120 * sim.Second,
		Seed:              2,
		ArrivalsPerSecond: 0.25,
		MeanLifetime:      40 * sim.Second,
		Mix:               "batch",
		Policy:            "pack",
		LLCPressureLimit:  20,
		RebalancePeriod:   5 * sim.Second,
		DeschedulePeriod:  10 * sim.Second,
		Workers:           1,
	}
}

// evictCfg arms preemption and gangs on migrateCfg's packed cluster at a
// load where preempted victims live-migrate rather than die and whole
// gangs retry: the two renderings of vm-preempt and vm-retry the other
// runs leave unpinned.
func evictCfg() Config {
	cfg := migrateCfg()
	cfg.Seed = 4
	cfg.ArrivalsPerSecond = 0.5
	cfg.MeanLifetime = 150 * sim.Second
	cfg.Preempt, cfg.Gang, cfg.GangFraction = true, true, 0.2
	return cfg
}

// TestClusterRecordGolden pins the bytes of both recording sinks — the
// event log (At Kind Host VM Detail per line) and the span JSONL — for
// three runs that together record every cluster EventKind.
func TestClusterRecordGolden(t *testing.T) {
	seen := map[EventKind]bool{}
	for _, run := range []struct {
		name string
		cfg  Config
	}{
		{"controlplane", controlPlaneCfg(1)},
		{"migrate", migrateCfg()},
		{"evict", evictCfg()},
	} {
		_, log, spans := runSpans(t, run.cfg)
		for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				seen[EventKind(f[1])] = true
			}
		}
		for _, art := range []struct {
			file string
			got  []byte
		}{
			{run.name + "_events.log", []byte(log)},
			{run.name + "_spans.jsonl", spans},
		} {
			golden.Check(t, filepath.Join("testdata", art.file), art.got)
		}
	}
	for _, kind := range []EventKind{
		EventVMArrive, EventVMPlace, EventVMRetry, EventVMReject, EventVMDepart,
		EventMigrateStart, EventMigrateDone, EventVMPreempted, EventGangAdmitted,
		EventBackfill, EventDeschedule,
	} {
		if !seen[kind] {
			t.Errorf("no %s event in either golden run", kind)
		}
	}
}
