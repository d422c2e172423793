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
// gang reserve and the planners rely on: on a host whose node 1 is partly
// full, a what-if copy of the view after admit holds exactly the free
// vector admitDomain leaves in the allocator, for fill, local with spill
// and stripe (three different layouts here); a release then holds what
// DestroyDomain hands back; and neither touches the cached view.
func TestPlanTakesIsWhatTheAllocatorTakes(t *testing.T) {
	allocFree := func(ho *Host) []int64 {
		free := make([]int64, ho.Top.NumNodes())
		for n := range free {
			free[n] = ho.H.Alloc.FreeMB(numa.NodeID(n))
		}
		return free
	}
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
		// More than node 1 has left, so local spills; odd, so the release
		// shares are inexact floats and the rounding shows.
		const size = 6143
		vm := &VM{Spec: VMSpec{Name: "vm", MemoryMB: size, VCPUs: 1}}
		before := fmt.Sprint(ho.view)
		what := ho.view.whatIf()
		what.admit(&vm.Spec, plan)
		dom, err := c.admitDomain(vm, ho, plan)
		if err != nil {
			t.Fatalf("%v: %v", plan.Policy, err)
		}
		if got, want := fmt.Sprint(what.FreePerNodeMB), fmt.Sprint(allocFree(ho)); got != want {
			t.Errorf("%v: admit left %s free, the allocator %s", plan.Policy, got, want)
		}
		vm.dom = dom
		what.release(vm)
		if err := ho.H.DestroyDomain(dom); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(what.FreePerNodeMB), fmt.Sprint(allocFree(ho)); got != want {
			t.Errorf("%v: release left %s free, the allocator %s", plan.Policy, got, want)
		}
		if got := fmt.Sprint(ho.view); got != before {
			t.Errorf("%v: the what-if copy moved the cached view: %s, was %s", plan.Policy, got, before)
		}
	}
}

// ---- planners, on real views and residents ----

// longLife outlives every planner test's horizon.
const longLife = 1000 * sim.Second

// residentOn places spec on host h directly, striping its memory, as a
// running VM that departs life from now.
func residentOn(t *testing.T, c *Cluster, h int, spec VMSpec, life sim.Duration) *VM {
	t.Helper()
	vm := &VM{ID: len(c.vms), Spec: spec, life: life}
	vm.Spec.Name = fmt.Sprintf("vm%03d", vm.ID)
	c.vms = append(c.vms, vm)
	c.placeOn(vm, c.hosts[h], MemPlan{Policy: mem.PolicyStripe}, 1)
	if c.err != nil {
		t.Fatal(c.err)
	}
	return vm
}

// nameOf names a planner's host for a failure message; nil is "no host".
func nameOf(ho *Host) string {
	if ho == nil {
		return "no host"
	}
	return ho.Name
}

// namesOf lists VM names for a failure message.
func namesOf(vms []*VM) []string {
	names := make([]string, len(vms))
	for i, vm := range vms {
		names[i] = vm.Spec.Name
	}
	return names
}

// TestPriorityRoundTrip: an arrival trace's integer priority names the
// class at that index of Priorities, and each class has its own name.
func TestPriorityRoundTrip(t *testing.T) {
	names := map[string]bool{}
	for i, p := range Priorities() {
		if Priority(i) != p || names[p.String()] || strings.HasPrefix(p.String(), "Priority(") {
			t.Fatalf("class %d is %v", i, p)
		}
		names[p.String()] = true
	}
	if !(BestEffort < Standard && Standard < Critical) {
		t.Fatal("priority order broken")
	}
	if !(BestEffort.Weight() < Standard.Weight() && Standard.Weight() < Critical.Weight()) {
		t.Fatal("weights not increasing with class")
	}
}

func TestPlanPreemptionMinimalAndCheapest(t *testing.T) {
	c := mkCluster(t, 2)
	// Host 0 has 1000 MB free behind a critical filler: its 4000 MB
	// best-effort victim alone admits the request. Host 1 is full and
	// needs both its standard victims, 5000 MB that cost more to move.
	residentOn(t, c, 0, VMSpec{MemoryMB: 17576, VCPUs: 2, Priority: Critical}, longLife)
	big := residentOn(t, c, 0, VMSpec{MemoryMB: 4000, VCPUs: 4}, longLife)
	residentOn(t, c, 0, VMSpec{MemoryMB: 2000, VCPUs: 2}, longLife)
	residentOn(t, c, 1, VMSpec{MemoryMB: 19576, VCPUs: 2, Priority: Critical}, longLife)
	residentOn(t, c, 1, VMSpec{MemoryMB: 2500, VCPUs: 2, Priority: Standard}, longLife)
	residentOn(t, c, 1, VMSpec{MemoryMB: 2500, VCPUs: 2, Priority: Standard}, longLife)
	host, victims := c.planPreemption(&VMSpec{MemoryMB: 4000, VCPUs: 4}, Critical)
	if host != c.hosts[0] {
		t.Fatalf("picked %s, want host0", nameOf(host))
	}
	// Greedy takes the cheaper 2000 MB victim, then the 4000 MB one; the
	// prune pass must drop the first, because the second alone frees enough.
	if len(victims) != 1 || victims[0] != big {
		t.Fatalf("victims %v, want [%s] (minimal set)", namesOf(victims), big.Spec.Name)
	}
}

func TestPlanPreemptionRespectsPriority(t *testing.T) {
	// Victims at or above the arrival's class are untouchable.
	c := mkCluster(t, 1)
	residentOn(t, c, 0, VMSpec{MemoryMB: 12288, VCPUs: 4, Priority: Standard}, longLife)
	residentOn(t, c, 0, VMSpec{MemoryMB: 12288, VCPUs: 4, Priority: Critical}, longLife)
	req := &VMSpec{MemoryMB: 2000, VCPUs: 2}
	if host, victims := c.planPreemption(req, Standard); host != nil {
		t.Fatalf("preempted equal/higher priority: %v on %s", namesOf(victims), host.Name)
	}
	// One class up, the standard resident is fair game.
	if host, victims := c.planPreemption(req, Critical); host == nil || len(victims) != 1 ||
		victims[0].Spec.Priority != Standard {
		t.Fatalf("critical request: %v on %s, want the standard resident",
			namesOf(victims), nameOf(host))
	}
}

func TestShadowReservation(t *testing.T) {
	c := mkCluster(t, 2)
	// Each host has 1000 MB free and a 2000 MB resident whose departure
	// lets the 3000 MB head in: host 0's at 10 s, host 1's at 30 s.
	residentOn(t, c, 0, VMSpec{MemoryMB: 21576, VCPUs: 2, Priority: Critical}, longLife)
	residentOn(t, c, 0, VMSpec{MemoryMB: 2000, VCPUs: 2}, 10*sim.Second)
	residentOn(t, c, 1, VMSpec{MemoryMB: 21576, VCPUs: 2, Priority: Critical}, longLife)
	residentOn(t, c, 1, VMSpec{MemoryMB: 2000, VCPUs: 2}, 30*sim.Second)
	head := &VMSpec{MemoryMB: 3000, VCPUs: 2}
	if at, host := c.shadowStart(head, nil); host != c.hosts[0] || at != sim.Time(10*sim.Second) {
		t.Fatalf("reservation %v on %s, want host0 at 10s", at, nameOf(host))
	}

	// A candidate on the reserved host that eats the headroom delays the
	// head; on the other host it cannot.
	cand, plan := &VMSpec{MemoryMB: 1000, VCPUs: 2}, MemPlan{Policy: mem.PolicyStripe}
	if !c.delaysHead(head, &c.hosts[0].view, cand, plan) {
		t.Fatal("backfill allowed to consume the reserved capacity")
	}
	if c.delaysHead(head, &c.hosts[1].view, cand, plan) {
		t.Fatal("backfill on a non-reserved host blocked")
	}

	// No reservation at all: nothing to delay.
	huge := &VMSpec{MemoryMB: 1 << 40, VCPUs: 2}
	if _, host := c.shadowStart(huge, nil); host != nil {
		t.Fatal("impossible request found a reservation")
	}
	if c.delaysHead(huge, &c.hosts[0].view, cand, plan) {
		t.Fatal("backfill blocked behind an unplaceable head")
	}
}

func TestPlanDrain(t *testing.T) {
	c := mkCluster(t, 3)
	// Host 0 has three residents, hosts 1 and 2 two each; host 1 would
	// win the tie on index but one of its residents is pinned, so host 2
	// is the emptiest fully movable host. Its residents are the smallest,
	// so it has the most free memory: no move may target it all the same.
	for i := 0; i < 3; i++ {
		residentOn(t, c, 0, VMSpec{MemoryMB: 2000, VCPUs: 2, Priority: Standard}, longLife)
	}
	residentOn(t, c, 1, VMSpec{MemoryMB: 2000, VCPUs: 2}, longLife)
	pinned := residentOn(t, c, 1, VMSpec{MemoryMB: 2000, VCPUs: 2, Priority: Standard}, longLife)
	want := []*VM{
		residentOn(t, c, 2, VMSpec{MemoryMB: 1000, VCPUs: 2}, longLife),
		residentOn(t, c, 2, VMSpec{MemoryMB: 1000, VCPUs: 2, Priority: Standard}, longLife),
	}
	src, moves := c.planDrain(func(vm *VM) bool { return vm != pinned })
	if src != c.hosts[2] {
		t.Fatalf("drained %s, want host2", nameOf(src))
	}
	if len(moves) != len(want) {
		t.Fatalf("%d moves, want %d", len(moves), len(want))
	}
	for i, mv := range moves {
		if mv.vm != want[i] {
			t.Fatalf("move %d relocates %s, want %s", i, mv.vm.Spec.Name, want[i].Spec.Name)
		}
		if mv.target == src {
			t.Fatalf("%s re-placed on the drained host", mv.vm.Spec.Name)
		}
	}

	// With every resident pinned, no plan exists.
	if src, _ := c.planDrain(func(*VM) bool { return false }); src != nil {
		t.Fatalf("drained a pinned cluster: %s", src.Name)
	}
}
