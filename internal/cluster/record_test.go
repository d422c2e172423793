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

// plannerCfg replays a hand-written trace onto three hosts to reach the
// planner branches the generated runs miss. At the 10 s descheduler tick
// host0 (one 20000 MB VM) is the emptiest source but fits nowhere else,
// so the drain falls through to host1, whose 10000 MB VM is charged to
// host2 past that host's largest free node (8288 MB after two 4000 MB
// VMs). At 15 s a standard-class head arrives that no host can ever
// hold, so it has no shadow reservation, and the best-effort VM behind
// it at 16 s backfills freely.
func plannerCfg() Config {
	rec := func(atS float64, memMB int64, prio int) TraceArrival {
		return TraceArrival{AtUS: int64(atS * 1e6), MemoryMB: memMB, VCPUs: 1,
			Priority: prio, LifeUS: 100e6}
	}
	return Config{
		Hosts:            3,
		Horizon:          30 * sim.Second,
		Seed:             3,
		RebalancePeriod:  -1, // no cooldown: every resident is movable
		DeschedulePeriod: 10 * sim.Second,
		Backfill:         true,
		Workers:          1,
		Arrival: ArrivalConfig{Process: ArrivalTrace, Trace: []TraceArrival{
			rec(1, 20000, 0),
			rec(2, 10000, 0),
			rec(3, 4000, 0),
			rec(4, 4000, 0),
			rec(15, 30000, 1),
			rec(16, 1024, 0),
		}},
	}
}

// TestClusterRecordGolden pins the bytes of both recording sinks — the
// event log (At Kind Host VM Detail per line) and the span JSONL — for
// four runs that together record every cluster EventKind.
func TestClusterRecordGolden(t *testing.T) {
	seen := map[EventKind]bool{}
	for _, run := range []struct {
		name string
		cfg  Config
	}{
		{"controlplane", controlPlaneCfg(1)},
		{"migrate", migrateCfg()},
		{"evict", evictCfg()},
		{"planners", plannerCfg()},
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
