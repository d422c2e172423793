package controlplane

import (
	"strings"
	"testing"

	"vprobe/internal/sim"
)

// capFits is the test FitFunc: total free memory covers the request and
// the VCPU cap holds — the CapacityFilter shape.
func capFits(req Request, h *HostCap) bool {
	return req.MemoryMB <= h.FreeMB() && h.GuestVCPUs+req.VCPUs <= h.VCPUCap
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
	req := Request{ID: 99, MemoryMB: 4000, VCPUs: 4, Priority: Critical}
	// Host 0: one big cheap victim suffices. Host 1: needs two pricier
	// victims. The plan must pick host 0's single victim.
	hosts := []*HostCap{
		{
			Index: 0, FreePerNodeMB: []int64{500, 500}, GuestVCPUs: 10, VCPUCap: 24,
			Victims: []Victim{
				{ID: 1, MemoryMB: 4000, VCPUs: 4, Priority: BestEffort,
					FreesPerNodeMB: []int64{2000, 2000}, CostCycles: 100},
				{ID: 2, MemoryMB: 2000, VCPUs: 2, Priority: BestEffort,
					FreesPerNodeMB: []int64{1000, 1000}, CostCycles: 50},
			},
		},
		{
			Index: 1, FreePerNodeMB: []int64{0, 0}, GuestVCPUs: 12, VCPUCap: 24,
			Victims: []Victim{
				{ID: 3, MemoryMB: 2000, VCPUs: 2, Priority: Standard,
					FreesPerNodeMB: []int64{1000, 1000}, CostCycles: 200},
				{ID: 4, MemoryMB: 2000, VCPUs: 2, Priority: Standard,
					FreesPerNodeMB: []int64{1000, 1000}, CostCycles: 200},
			},
		},
	}
	plan := PlanPreemption(req, hosts, capFits)
	if plan == nil {
		t.Fatal("no plan found")
	}
	if plan.HostIndex != 0 {
		t.Fatalf("picked host %d, want 0", plan.HostIndex)
	}
	// Greedy adds victim 2 (cheaper) then victim 1; the prune pass must
	// drop victim 2 because victim 1 alone frees enough.
	if len(plan.VictimIDs) != 1 || plan.VictimIDs[0] != 1 {
		t.Fatalf("victims %v, want [1] (minimal set)", plan.VictimIDs)
	}
	if plan.CostCycles != 100 {
		t.Fatalf("cost %v, want 100", plan.CostCycles)
	}
}

func TestPlanPreemptionRespectsPriority(t *testing.T) {
	// Victims at or above the arrival's class are untouchable.
	req := Request{ID: 9, MemoryMB: 2000, VCPUs: 2, Priority: Standard}
	hosts := []*HostCap{{
		Index: 0, FreePerNodeMB: []int64{0, 0}, GuestVCPUs: 8, VCPUCap: 24,
		Victims: []Victim{
			{ID: 1, MemoryMB: 4000, VCPUs: 4, Priority: Standard,
				FreesPerNodeMB: []int64{2000, 2000}, CostCycles: 10},
			{ID: 2, MemoryMB: 4000, VCPUs: 4, Priority: Critical,
				FreesPerNodeMB: []int64{2000, 2000}, CostCycles: 10},
		},
	}}
	if plan := PlanPreemption(req, hosts, capFits); plan != nil {
		t.Fatalf("preempted equal/higher priority: %+v", plan)
	}
}

func TestShadowReservation(t *testing.T) {
	req := Request{ID: 7, MemoryMB: 3000, VCPUs: 2, Priority: Standard}
	hosts := []*HostCap{
		{Index: 0, FreePerNodeMB: []int64{1000, 0}, GuestVCPUs: 10, VCPUCap: 24},
		{Index: 1, FreePerNodeMB: []int64{500, 500}, GuestVCPUs: 10, VCPUCap: 24},
	}
	deps := []Departure{
		{At: 30 * sim.Time(sim.Second), HostIndex: 1, ID: 4,
			FreesPerNodeMB: []int64{1000, 1000}, VCPUs: 2},
		{At: 10 * sim.Time(sim.Second), HostIndex: 0, ID: 3,
			FreesPerNodeMB: []int64{2000, 0}, VCPUs: 2},
	}
	res := ShadowReservation(req, hosts, deps, capFits, nil)
	if !res.Found || res.HostIndex != 0 || res.At != 10*sim.Time(sim.Second) {
		t.Fatalf("reservation %+v, want host 0 at 10s", res)
	}

	// A candidate on the reserved host that eats the headroom delays the
	// head; on the other host it cannot.
	onReserved := Placement{HostIndex: 0, TakesPerNode: []int64{1000, 0}, VCPUs: 2}
	if CanBackfill(req, res, hosts, deps, capFits, onReserved) {
		t.Fatal("backfill allowed to consume the reserved capacity")
	}
	elsewhere := Placement{HostIndex: 1, TakesPerNode: []int64{500, 0}, VCPUs: 2}
	if !CanBackfill(req, res, hosts, deps, capFits, elsewhere) {
		t.Fatal("backfill on a non-reserved host blocked")
	}

	// No reservation at all: nothing to delay.
	huge := Request{ID: 8, MemoryMB: 1 << 40, VCPUs: 2, Priority: Standard}
	noRes := ShadowReservation(huge, hosts, deps, capFits, nil)
	if noRes.Found {
		t.Fatal("impossible request found a reservation")
	}
	if !CanBackfill(huge, noRes, hosts, deps, capFits, onReserved) {
		t.Fatal("backfill blocked behind an unplaceable head")
	}
}

func TestPlanDrain(t *testing.T) {
	hosts := []*HostCap{
		{Index: 0, FreePerNodeMB: []int64{8000, 8000}, GuestVCPUs: 4, VCPUCap: 24, LiveVMs: 2,
			Victims: []Victim{
				{ID: 10, MemoryMB: 2000, VCPUs: 2, Priority: Standard},
				{ID: 11, MemoryMB: 2000, VCPUs: 2, Priority: BestEffort},
			}},
		{Index: 1, FreePerNodeMB: []int64{6000, 6000}, GuestVCPUs: 8, VCPUCap: 24, LiveVMs: 3,
			Victims: []Victim{ // one resident pinned: not fully movable
				{ID: 20, MemoryMB: 2000, VCPUs: 2, Priority: Standard},
				{ID: 21, MemoryMB: 2000, VCPUs: 2, Priority: Standard},
			}},
		{Index: 2, FreePerNodeMB: []int64{12000, 12000}, GuestVCPUs: 2, VCPUCap: 24, LiveVMs: 1,
			Victims: []Victim{
				{ID: 30, MemoryMB: 4000, VCPUs: 2, Priority: Standard},
			}},
	}
	plan := PlanDrain(hosts, capFits)
	if plan == nil {
		t.Fatal("no drain plan")
	}
	// Host 2 is the emptiest fully-movable host.
	if plan.HostIndex != 2 {
		t.Fatalf("drained host %d, want 2", plan.HostIndex)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].VictimID != 30 {
		t.Fatalf("moves %+v", plan.Moves)
	}
	if plan.Moves[0].TargetHost == 2 {
		t.Fatal("victim re-placed on the drained host")
	}

	// With every host pinned, no plan exists.
	for _, h := range hosts {
		h.Victims = nil
	}
	if plan := PlanDrain(hosts, capFits); plan != nil {
		t.Fatalf("drained a pinned cluster: %+v", plan)
	}
}
