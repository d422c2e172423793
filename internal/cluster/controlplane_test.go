package cluster

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

// overloadCfg is a single host drowning in long-lived arrivals: heads
// block, retries pile up, rejections happen — the control plane's natural
// habitat.
func overloadCfg() Config {
	return Config{
		Hosts:             1,
		Horizon:           120 * sim.Second,
		Seed:              5,
		ArrivalsPerSecond: 1.0,
		MeanLifetime:      500 * sim.Second,
		Workers:           1,
	}
}

func TestClusterPreempts(t *testing.T) {
	cfg := overloadCfg()
	cfg.Hosts = 2
	cfg.Preempt = true
	rep, log := runWith(t, cfg)
	if rep.Preemptions == 0 {
		t.Fatal("an overloaded cluster with preemption on never preempted")
	}
	if got := strings.Count(log, string(EventVMPreempted)); got != rep.Preemptions {
		t.Fatalf("%d vm-preempt events, stats say %d", got, rep.Preemptions)
	}
	if rep.PreemptKills > rep.Preemptions {
		t.Fatalf("kills %d > preemptions %d", rep.PreemptKills, rep.Preemptions)
	}
	// Preemption exists to serve the higher classes: at equal load it must
	// not make the critical class wait longer than the no-preemption
	// baseline does.
	base := cfg
	base.Preempt = false
	baseRep, _ := runWith(t, base)
	crit := func(r *Report) PriorityReport {
		for _, p := range r.PerPriority {
			if p.Class == "critical" {
				return p
			}
		}
		t.Fatal("per-priority table missing the critical class")
		return PriorityReport{}
	}
	with, without := crit(rep), crit(baseRep)
	if with.Placed == 0 {
		t.Fatal("no critical VM ever placed")
	}
	if with.MeanWait > without.MeanWait {
		t.Fatalf("critical mean wait %v with preemption, %v without",
			with.MeanWait, without.MeanWait)
	}
}

func TestClusterGangAllOrNothing(t *testing.T) {
	cfg := Config{
		Hosts:             3,
		Horizon:           120 * sim.Second,
		Seed:              9,
		ArrivalsPerSecond: 0.5,
		MeanLifetime:      90 * sim.Second,
		GangFraction:      0.4,
		GangSize:          3,
		Gang:              true,
		Workers:           1,
	}
	rep, log := runWith(t, cfg)
	if rep.GangsAdmitted == 0 {
		t.Fatal("no gang admitted at 40% gang fraction")
	}
	if got := strings.Count(log, string(EventGangAdmitted)); got != rep.GangsAdmitted {
		t.Fatalf("%d gang-admit events, stats say %d", got, rep.GangsAdmitted)
	}
	// All-or-nothing: every gang-admit names a distinct group and its full
	// member count.
	admitRe := regexp.MustCompile(`gang (g\d+) admitted: (\d+) VMs`)
	admitted := map[string]bool{}
	for _, m := range admitRe.FindAllStringSubmatch(log, -1) {
		admitted[m[1]] = true
		if m[2] != fmt.Sprint(cfg.GangSize) {
			t.Fatalf("gang %s admitted with %s VMs, want %d", m[1], m[2], cfg.GangSize)
		}
	}
	if len(admitted) != rep.GangsAdmitted {
		t.Fatalf("admitted %d distinct gangs, stats say %d", len(admitted), rep.GangsAdmitted)
	}
}

// TestClusterGangLoadInvariance is the equal-load guarantee: toggling the
// gang admission mechanism must not change the arrival stream (VMs, sizes,
// priorities, times) — only what admission does with it.
func TestClusterGangLoadInvariance(t *testing.T) {
	arrivals := func(gang bool) string {
		cfg := Config{
			Hosts:             2,
			Horizon:           90 * sim.Second,
			Seed:              4,
			ArrivalsPerSecond: 0.6,
			GangFraction:      0.3,
			Gang:              gang,
			Workers:           1,
		}
		var log strings.Builder
		cfg.Events = func(ev Event) {
			if ev.Kind == EventVMArrive {
				fmt.Fprintf(&log, "%v %s %s\n", ev.At, ev.VM, ev.Detail)
			}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return log.String()
	}
	on, off := arrivals(true), arrivals(false)
	if on == "" || on != off {
		t.Fatal("arrival stream differs between gang admission on and off")
	}
}

func TestClusterBackfills(t *testing.T) {
	// Churn on one host: departures keep opening small holes while large
	// heads stay blocked in backoff — the hole/head mix backfill needs.
	cfg := Config{
		Hosts:             1,
		Horizon:           180 * sim.Second,
		Seed:              5,
		ArrivalsPerSecond: 0.9,
		MeanLifetime:      60 * sim.Second,
		Backfill:          true,
		Workers:           1,
	}
	rep, log := runWith(t, cfg)
	if rep.Backfills == 0 {
		t.Fatal("a churning overloaded host with backfill on never backfilled")
	}
	if got := strings.Count(log, string(EventBackfill)); got != rep.Backfills {
		t.Fatalf("%d vm-backfill events, stats say %d", got, rep.Backfills)
	}
	// Backfill strictly adds placements over the blocking baseline.
	base := cfg
	base.Backfill = false
	baseRep, _ := runWith(t, base)
	if rep.Placed < baseRep.Placed {
		t.Fatalf("backfill placed %d < baseline %d", rep.Placed, baseRep.Placed)
	}
}

func TestClusterDeschedules(t *testing.T) {
	cfg := Config{
		Hosts:             3,
		Horizon:           240 * sim.Second,
		Seed:              3,
		ArrivalsPerSecond: 0.25,
		MeanLifetime:      40 * sim.Second,
		Policy:            "spread", // scatter VMs so hosts fragment
		DeschedulePeriod:  10 * sim.Second,
		RebalancePeriod:   -1, // isolate the descheduler
		Workers:           1,
	}
	rep, log := runWith(t, cfg)
	if rep.DeschedMoves == 0 {
		t.Fatal("a fragmented low-load cluster never descheduled")
	}
	if got := strings.Count(log, string(EventDeschedule)); got != rep.DeschedMoves {
		t.Fatalf("%d deschedule events, stats say %d", got, rep.DeschedMoves)
	}
	if rep.Migrations < rep.DeschedMoves {
		t.Fatalf("migrations %d < deschedule moves %d", rep.Migrations, rep.DeschedMoves)
	}
}

// TestControlPlaneDeterministicAcrossWorkers is the subsystem's acceptance
// bar: with every mechanism enabled at once, a fixed seed produces
// byte-identical reports and event logs at workers 1, 4, and 8.
func TestControlPlaneDeterministicAcrossWorkers(t *testing.T) {
	base := Config{
		Hosts:             3,
		Horizon:           120 * sim.Second,
		Seed:              6,
		ArrivalsPerSecond: 0.8,
		MeanLifetime:      150 * sim.Second,
		Preempt:           true,
		Gang:              true,
		GangFraction:      0.2,
		Backfill:          true,
		DeschedulePeriod:  15 * sim.Second,
	}
	var wantRep, wantLog string
	for _, workers := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		rep, log := runWith(t, cfg)
		if wantRep == "" {
			wantRep, wantLog = rep.String(), log
			continue
		}
		if rep.String() != wantRep {
			t.Fatalf("report diverges at workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, wantRep, workers, rep.String())
		}
		if log != wantLog {
			t.Fatalf("event log diverges at workers=%d", workers)
		}
	}
}

// ---- admission retry queue (satellite coverage) ----

// TestRetryBackoffSchedule checks the linear backoff contract: attempt k
// re-queues with delay k*retryBackoff, visible in the retry events.
func TestRetryBackoffSchedule(t *testing.T) {
	cfg := overloadCfg()
	_, log := runWith(t, cfg)
	re := regexp.MustCompile(`vm (vm\d+) queued \(attempt (\d+), retry in ([^)]+)\)`)
	matches := re.FindAllStringSubmatch(log, -1)
	if len(matches) == 0 {
		t.Fatal("no retry events in an overloaded run")
	}
	backoff := retryBackoff
	for _, m := range matches {
		var attempt int
		fmt.Sscanf(m[2], "%d", &attempt)
		want := (backoff * sim.Duration(attempt)).String()
		if m[3] != want {
			t.Fatalf("vm %s attempt %d retries in %s, want %s", m[1], attempt, m[3], want)
		}
	}
}

// TestRetryRejectionOrdering checks the maxRetries contract: a rejected VM
// reports maxRetries+1 attempts, and its rejection is the last event it
// ever emits.
func TestRetryRejectionOrdering(t *testing.T) {
	cfg := overloadCfg()
	var events []Event
	cfg.Events = func(ev Event) { events = append(events, ev) }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	lastKind := map[string]EventKind{}
	retries := map[string]int{}
	rejected := map[string]bool{}
	for _, ev := range events {
		lastKind[ev.VM] = ev.Kind
		switch ev.Kind {
		case EventVMRetry:
			retries[ev.VM]++
		case EventVMReject:
			rejected[ev.VM] = true
			if !strings.Contains(ev.Detail, fmt.Sprintf("after %d attempts", maxRetries+1)) {
				t.Fatalf("rejection after wrong attempt count: %q", ev.Detail)
			}
		}
	}
	if len(rejected) == 0 {
		t.Fatal("overloaded host rejected nothing")
	}
	for vm := range rejected {
		if lastKind[vm] != EventVMReject {
			t.Fatalf("vm %s emitted %s after its rejection", vm, lastKind[vm])
		}
		if retries[vm] != maxRetries {
			t.Fatalf("vm %s rejected after %d retry events, want %d",
				vm, retries[vm], maxRetries)
		}
	}
}

// TestRetryInterleavingDeterministic pins the retry/arrival interleaving:
// an overloaded run (dense retries racing fresh arrivals) must be
// byte-identical at workers 1, 4, and 8.
func TestRetryInterleavingDeterministic(t *testing.T) {
	var wantRep, wantLog string
	for _, workers := range []int{1, 4, 8} {
		cfg := overloadCfg()
		cfg.Hosts = 2
		cfg.Workers = workers
		rep, log := runWith(t, cfg)
		if wantRep == "" {
			wantRep, wantLog = rep.String(), log
			continue
		}
		if rep.String() != wantRep {
			t.Fatalf("report diverges at workers=%d", workers)
		}
		if log != wantLog {
			t.Fatalf("event log diverges at workers=%d", workers)
		}
	}
}

// TestPlanTakesIsWhatTheAllocatorTakes pins the what-if arithmetic the
// gang reserve and backfill rely on: on a host whose node 1 is partly
// full, the per-node drop admitDomain leaves in the allocator equals
// planTakes on the view before admission, for fill, local with spill and
// stripe (three different layouts here), and planTakes leaves the view
// itself alone.
func TestPlanTakesIsWhatTheAllocatorTakes(t *testing.T) {
	for _, plan := range []MemPlan{
		{Policy: mem.PolicyFill},
		{Policy: mem.PolicyLocal, Preferred: 1},
		{Policy: mem.PolicyStripe},
	} {
		c := mkCluster(t, 1)
		ho := c.hosts[0]
		if _, err := c.admitDomain(&VM{Spec: VMSpec{Name: "base", MemoryMB: 8192, VCPUs: 1}},
			ho, MemPlan{Policy: mem.PolicyLocal, Preferred: 1}); err != nil {
			t.Fatal(err)
		}
		c.refreshViews()
		const size = 6144 // more than node 1 has left, so local spills
		takes := planTakes(plan, ho.view.FreePerNodeMB, size)
		before := append([]int64(nil), ho.view.FreePerNodeMB...)
		if _, err := c.admitDomain(&VM{Spec: VMSpec{Name: "vm", MemoryMB: size, VCPUs: 1}},
			ho, plan); err != nil {
			t.Fatalf("%v: %v", plan.Policy, err)
		}
		for n := range before {
			if drop := before[n] - ho.H.Alloc.FreeMB(numa.NodeID(n)); drop != takes[n] {
				t.Errorf("%v: node %d dropped %d MB, planTakes %v", plan.Policy, n, drop, takes)
			}
		}
	}
}
