package cluster

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// The incremental-engine invariants (DESIGN.md §14), pinned op by op:
// every cluster-level mutation must dirty exactly the hosts it touched,
// a refresh must bump a generation if and only if a placement input of
// that host moved, and untouched hosts must never be revisited. The end-to-end agreement between the
// cached path and a full rescan is covered separately by the PlaceCheck
// run at the bottom of this file.

// mkCluster builds an unstarted cluster for driving the incremental
// engine by hand. New seeds every host view directly (without queuing),
// so generations start from a stable baseline and the refresh list
// starts empty.
func mkCluster(t *testing.T, hosts int) *Cluster {
	t.Helper()
	c, err := New(Config{Hosts: hosts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gens(c *Cluster) []uint64 {
	out := make([]uint64, len(c.hosts))
	for i, ho := range c.hosts {
		out[i] = ho.gen
	}
	return out
}

// placeVM pushes one spec through the hot path exactly as admission
// does: incremental place, then placeOn onto the winner.
func placeVM(t *testing.T, c *Cluster, spec VMSpec) *VM {
	t.Helper()
	hv, plan, err := c.place(&spec)
	if err != nil {
		t.Fatalf("place %s: %v", spec.Name, err)
	}
	vm := &VM{ID: len(c.vms), Spec: spec, life: 30 * sim.Second}
	c.vms = append(c.vms, vm)
	c.placeOn(vm, c.hosts[hv.Index], plan, 1)
	if c.err != nil {
		t.Fatalf("placeOn %s: %v", spec.Name, c.err)
	}
	return vm
}

// checkGens asserts that exactly the hosts in bumped moved their view
// generation since base.
func checkGens(t *testing.T, c *Cluster, base []uint64, bumped map[int]bool) {
	t.Helper()
	for i, ho := range c.hosts {
		if bumped[i] {
			if ho.gen <= base[i] {
				t.Errorf("host%d: generation %d not bumped (base %d)", i, ho.gen, base[i])
			}
		} else if ho.gen != base[i] {
			t.Errorf("host%d: generation moved %d -> %d without a local delta",
				i, base[i], ho.gen)
		}
	}
}

func TestPlacementDirtiesOnlyTarget(t *testing.T) {
	c := mkCluster(t, 6)
	base := gens(c)
	vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 2048, VCPUs: 2})
	target := vm.Host.Index
	for i, ho := range c.hosts {
		if i == target {
			if !ho.dirty || !ho.queued {
				t.Fatalf("target host%d not dirty/queued after placement", i)
			}
			continue
		}
		if ho.dirty || ho.queued {
			t.Fatalf("host%d dirtied by a placement on host%d", i, target)
		}
	}
	c.refreshViews()
	checkGens(t, c, base, map[int]bool{target: true})
}

func TestDepartureDirtiesOnlyHost(t *testing.T) {
	c := mkCluster(t, 6)
	vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 2048, VCPUs: 2})
	c.refreshViews()
	base := gens(c)
	host := vm.Host.Index
	c.onDepart(vm)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if vm.state != stateDeparted {
		t.Fatalf("vm state %v after depart", vm.state)
	}
	for i, ho := range c.hosts {
		if (i == host) != ho.dirty {
			t.Fatalf("host%d dirty=%v after departure from host%d", i, ho.dirty, host)
		}
	}
	c.refreshViews()
	checkGens(t, c, base, map[int]bool{host: true})
}

func TestMigrationDirtiesSourceAndTarget(t *testing.T) {
	c := mkCluster(t, 4)
	vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 2048, VCPUs: 2})
	src := vm.Host.Index
	c.refreshViews()
	base := gens(c)
	dst := (src + 1) % len(c.hosts)
	hv, plan, err := c.pipeline.Place(&vm.Spec, c.liveView(c.hosts[dst]))
	if err != nil {
		t.Fatalf("restricted place on host%d: %v", dst, err)
	}
	if hv.Index != dst {
		t.Fatalf("restricted place picked host%d, want host%d", hv.Index, dst)
	}
	c.startMigration(vm, c.hosts[dst], plan)
	if c.err != nil {
		t.Fatal(c.err)
	}
	for i, ho := range c.hosts {
		want := i == src || i == dst
		if ho.dirty != want {
			t.Fatalf("host%d dirty=%v after migration host%d -> host%d",
				i, ho.dirty, src, dst)
		}
	}
	c.refreshViews()
	checkGens(t, c, base, map[int]bool{src: true, dst: true})
}

// TestSettledHostsLeaveRefreshList pins the quiescence rule: a host
// drops off the refresh list only once it is empty AND nothing on it is
// runnable, and from then on repeated refreshes never touch it again.
func TestSettledHostsLeaveRefreshList(t *testing.T) {
	c := mkCluster(t, 3)
	vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 1024, VCPUs: 1})
	host := vm.Host
	c.onDepart(vm)
	if c.err != nil {
		t.Fatal(c.err)
	}
	c.refreshViews()
	if !host.settled() {
		t.Fatal("destroyed-before-running domain left the host unsettled")
	}
	if host.queued {
		t.Fatal("settled empty host still on the refresh list")
	}
	base := gens(c)
	for i := 0; i < 5; i++ {
		c.refreshViews()
	}
	checkGens(t, c, base, nil)
	if len(c.refreshList) != 0 {
		t.Fatalf("refresh list holds %d settled hosts", len(c.refreshList))
	}
}

// inputs is a copy of the view fields placement reads.
type inputs struct {
	guest, vms int
	llc        float64
	free       []int64
}

func viewInputs(hv *HostView) inputs {
	return inputs{hv.GuestVCPUs, hv.VMs, hv.LLCPressure,
		append([]int64(nil), hv.FreePerNodeMB...)}
}

func (a inputs) equal(b inputs) bool {
	if a.guest != b.guest || a.vms != b.vms ||
		math.Float64bits(a.llc) != math.Float64bits(b.llc) {
		return false
	}
	for n := range a.free {
		if a.free[n] != b.free[n] {
			return false
		}
	}
	return true
}

// stepHost advances one host's engine by d, refreshes the views, checks
// the refreshed view against a from-scratch snapshot, and checks the
// invalidation contract: the generation moved if and only if an input
// did. It reports whether the inputs moved.
func stepHost(t *testing.T, c *Cluster, ho *Host, d sim.Duration) bool {
	t.Helper()
	before, gen := viewInputs(&ho.view), ho.gen
	if err := ho.advanceTo(context.Background(), ho.H.Engine.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	c.refreshViews()
	if ho.viewTime != ho.H.Engine.Now() {
		t.Fatalf("%s advanced to %v but its view is at %v", ho.Name, ho.H.Engine.Now(), ho.viewTime)
	}
	if diff := diffViews(&ho.view, ho.freshView()); diff != "" {
		t.Fatalf("%s cached view diverged: %s", ho.Name, diff)
	}
	moved := !before.equal(viewInputs(&ho.view))
	if bumped := ho.gen != gen; bumped != moved {
		t.Fatalf("%s at %v: inputs moved=%v but generation %d -> %d",
			ho.Name, ho.H.Engine.Now(), moved, gen, ho.gen)
	}
	return moved
}

// steadyApp is a one-phase app that never blocks and never finishes
// within the test: while it runs, its host's counters move and its LLC
// pressure stays put.
func steadyApp() *workload.Profile {
	p := workload.Povray()
	p.BlockProb = 0
	p.TotalInstructions = 1e13
	return p
}

// TestRefreshWithoutInputChangeKeepsGen pins the tentpole's saving: a
// host that ran guest work since its last refresh is refreshed, but when
// only its memory-access counters (and so its lifetime remote ratio)
// moved, no placement input changed and its cached scores stay valid.
func TestRefreshWithoutInputChangeKeepsGen(t *testing.T) {
	c := mkCluster(t, 2)
	// Striped memory, so the VCPU's accesses are part remote and the
	// lifetime remote ratio moves as it runs.
	spec := VMSpec{Name: "vm000", MemoryMB: 1024, VCPUs: 1,
		Profiles: []*workload.Profile{steadyApp()}}
	hv, _, err := c.place(&spec)
	if err != nil {
		t.Fatal(err)
	}
	ho := c.hosts[hv.Index]
	c.placeOn(&VM{Spec: spec, life: 30 * sim.Second}, ho, MemPlan{Policy: mem.PolicyStripe}, 1)
	if c.err != nil {
		t.Fatal(c.err)
	}
	stepHost(t, c, ho, 10*sim.Millisecond)
	gen := ho.gen
	total0, _ := ho.counterTotals()
	ratio0 := ho.remoteRatio()
	for i := 0; i < 10; i++ {
		if stepHost(t, c, ho, 20*sim.Millisecond) {
			t.Fatalf("step %d: a never-blocking one-phase app moved a placement input", i)
		}
	}
	if ho.gen != gen {
		t.Fatalf("generation %d -> %d with no input change", gen, ho.gen)
	}
	if total, _ := ho.counterTotals(); total <= total0 {
		t.Fatalf("counters did not move (%v -> %v): the host never ran", total0, total)
	}
	if ratio := ho.remoteRatio(); ratio == ratio0 {
		t.Fatalf("lifetime remote ratio stayed %v: the test no longer moves it", ratio)
	}
}

// TestRefreshBumpsGenOnInputChange pins the other direction: a phase
// change, a block or wake, and a departure each move an input, and each
// bumps the generation (stepHost checks the "if and only if" on every
// step).
func TestRefreshBumpsGenOnInputChange(t *testing.T) {
	t.Run("phase", func(t *testing.T) {
		c := mkCluster(t, 2)
		app := workload.LU()
		app.BlockProb = 0
		app.TotalInstructions = 4e8
		vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 1024, VCPUs: 1,
			Profiles: []*workload.Profile{app}})
		v := vm.dom.VCPUs[0]
		stepHost(t, c, vm.Host, sim.Millisecond)
		phases := 0
		for i := 0; i < 400 && !v.Done; i++ {
			ph := v.Phase()
			moved := stepHost(t, c, vm.Host, sim.Millisecond)
			if v.Runnable() && v.Phase() != ph {
				phases++
				if !moved {
					t.Fatalf("step %d: phase change left every input unchanged", i)
				}
			}
		}
		if phases == 0 {
			t.Fatal("the app never changed phase")
		}
	})
	t.Run("block", func(t *testing.T) {
		c := mkCluster(t, 2)
		vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 1024, VCPUs: 2,
			Profiles: []*workload.Profile{workload.Memcached(8), workload.Memcached(8)}})
		stepHost(t, c, vm.Host, sim.Millisecond)
		var moved, still int
		for i := 0; i < 200; i++ {
			if stepHost(t, c, vm.Host, 500*sim.Microsecond) {
				moved++
			} else {
				still++
			}
		}
		if moved == 0 || still == 0 {
			t.Fatalf("blocking server VCPUs: %d refreshes moved an input, %d did not; want both",
				moved, still)
		}
	})
	t.Run("departure", func(t *testing.T) {
		c := mkCluster(t, 2)
		vm := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 1024, VCPUs: 1,
			Profiles: []*workload.Profile{steadyApp()}})
		ho := vm.Host
		stepHost(t, c, ho, 10*sim.Millisecond)
		gen := ho.gen
		c.onDepart(vm)
		if c.err != nil {
			t.Fatal(c.err)
		}
		if !stepHost(t, c, ho, sim.Millisecond) || ho.gen == gen {
			t.Fatal("departure did not bump the host's generation")
		}
	})
}

// TestGangFailedReserveRestoresState pins the gang reserve's restore
// rule: a gang whose last member fits nowhere, after the earlier members
// reserved into the live views, must leave every view, generation and
// class-heap entry exactly as a from-scratch rescan sees
// the (unchanged) hosts — including a score class first built mid-reserve.
func TestGangFailedReserveRestoresState(t *testing.T) {
	c := mkCluster(t, 4)
	placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 4096, VCPUs: 2})
	placeVM(t, c, VMSpec{Name: "vm001", MemoryMB: 2048, VCPUs: 1})
	small := VMSpec{MemoryMB: 3072, VCPUs: 2}
	huge := VMSpec{MemoryMB: 1 << 30, VCPUs: 1}
	c.refreshViews()
	if _, _, err := c.scores.place(&small); err != nil {
		t.Fatal(err)
	}
	// Drain every class, so each entry is exact before the gang: the
	// checks below then see only what the reserve left behind.
	for _, cs := range c.scores.classes {
		c.scores.place(&cs.spec)
	}
	classes := len(c.scores.classes)
	base := gens(c)
	var vms []*VM
	for i, spec := range []VMSpec{small, small, huge} {
		spec.Name = fmt.Sprintf("gang%d", i)
		spec.Group = "g"
		vms = append(vms, &VM{ID: 100 + i, Spec: spec})
	}
	u := &admitUnit{vms: vms, gang: true, priority: BestEffort}
	if c.tryAdmitGang(u) {
		t.Fatal("a gang with an unplaceable member was admitted")
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	if len(c.reserved) != 0 {
		t.Fatalf("%d hosts still reserved after the gang attempt", len(c.reserved))
	}
	checkGens(t, c, base, nil)
	fresh := refreshed(c)
	for i, ho := range c.hosts {
		if diff := diffViews(&ho.view, fresh[i]); diff != "" {
			t.Errorf("%s view not restored: %s", ho.Name, diff)
		}
	}
	if len(c.scores.classes) != classes+1 || c.scores.class(&huge) != c.scores.classes[classes] {
		t.Fatalf("the unplaceable member's class was not built by the reserve")
	}
	for _, cs := range c.scores.classes {
		for h, hv := range fresh {
			want := scoreEntry{gen: c.hosts[h].gen, feasible: true}
			for _, f := range c.pipeline.Filters {
				if f.Filter(&cs.spec, hv) != nil {
					want.feasible = false
					break
				}
			}
			if want.feasible {
				for _, ws := range c.pipeline.Scorers {
					want.score += ws.Weight * ws.Plugin.Score(&cs.spec, hv)
				}
			}
			got := cs.entries[h]
			if got.gen != want.gen || got.feasible != want.feasible ||
				math.Float64bits(got.score) != math.Float64bits(want.score) {
				t.Errorf("class %d MB/%d vcpus host%d: entry %+v, rescan %+v",
					cs.memMB, cs.vcpus, h, got, want)
			}
		}
		hv, _, err := c.scores.place(&cs.spec)
		want, _, wantErr := c.pipeline.Place(&cs.spec, fresh)
		if (err == nil) != (wantErr == nil) || (err == nil && hv.Index != want.Index) {
			t.Errorf("class %d MB/%d vcpus: cached winner %v (err %v), rescan %v (err %v)",
				cs.memMB, cs.vcpus, hv, err, want, wantErr)
		}
	}
}

// TestCachedViewMatchesFresh drives a mutation sequence and asserts
// every host's persistent view is field-for-field the from-scratch
// snapshot — the same equivalence -place-check enforces mid-run.
func TestCachedViewMatchesFresh(t *testing.T) {
	c := mkCluster(t, 4)
	a := placeVM(t, c, VMSpec{Name: "vm000", MemoryMB: 2048, VCPUs: 2})
	b := placeVM(t, c, VMSpec{Name: "vm001", MemoryMB: 4096, VCPUs: 4})
	placeVM(t, c, VMSpec{Name: "vm002", MemoryMB: 1024, VCPUs: 1})
	c.onDepart(a)
	dst := (b.Host.Index + 1) % len(c.hosts)
	if hv, plan, err := c.pipeline.Place(&b.Spec, c.liveView(c.hosts[dst])); err == nil && hv.Index == dst {
		c.startMigration(b, c.hosts[dst], plan)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	c.refreshViews()
	for _, ho := range c.hosts {
		fresh := ho.freshView()
		if diff := diffViews(&ho.view, fresh); diff != "" {
			t.Errorf("%s cached view diverged: %s", ho.Name, diff)
		}
	}
}

// TestScoreCacheTracksInvalidation pins that a host refresh is what
// invalidates cached scores: as placements consume capacity step by
// step, the cached winner must keep matching what the generic pipeline
// picks over from-scratch views, through to the fleet filling up.
func TestScoreCacheTracksInvalidation(t *testing.T) {
	c := mkCluster(t, 4)
	spec := VMSpec{MemoryMB: 4096, VCPUs: 4}
	for i := 0; i < 32; i++ {
		hv, plan, err := c.place(&spec)
		hv2, _, err2 := c.pipeline.Place(&spec, refreshed(c))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("step %d: cached err=%v, fresh err=%v", i, err, err2)
		}
		if err != nil {
			return // fleet full; cached path agreed with the rescan on that
		}
		if hv.Index != hv2.Index {
			t.Fatalf("step %d: cached winner host%d, fresh winner host%d",
				i, hv.Index, hv2.Index)
		}
		s := spec
		s.Name = fmt.Sprintf("vm%03d", i)
		vm := &VM{ID: len(c.vms), Spec: s, life: 30 * sim.Second}
		c.vms = append(c.vms, vm)
		c.placeOn(vm, c.hosts[hv.Index], plan, 1)
		if c.err != nil {
			t.Fatal(c.err)
		}
	}
	t.Fatal("32 4GB placements never filled a 4-host fleet")
}

// refreshed returns from-scratch views of every host, in index order.
func refreshed(c *Cluster) []*HostView {
	out := make([]*HostView, len(c.hosts))
	for i, ho := range c.hosts {
		out[i] = ho.freshView()
	}
	return out
}

// TestPlaceCheckAllMechanisms is the end-to-end cross-validation: a full
// run with every admission mechanism exercised — preemption, gangs,
// backfill, the descheduler, rebalancing — under -place-check, which
// stops the run on the first decision or view that diverges from a full
// rescan. Run at several worker counts, the results must also be
// byte-identical (the determinism acceptance criterion).
func TestPlaceCheckAllMechanisms(t *testing.T) {
	base := Config{
		Hosts:             4,
		Horizon:           120 * sim.Second,
		Seed:              17,
		ArrivalsPerSecond: 1.2,
		MeanLifetime:      30 * sim.Second,
		Preempt:           true,
		Gang:              true,
		GangFraction:      0.3,
		GangSize:          3,
		Backfill:          true,
		DeschedulePeriod:  15 * sim.Second,
		PlaceCheck:        true,
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
			t.Fatalf("report diverges at workers=%d", workers)
		}
		if log != wantLog {
			t.Fatalf("event log diverges at workers=%d", workers)
		}
	}
}

// TestPlaceCheckLazyClocks drives every site that catches a lagging host
// up before mutating it — placement, departure, both ends of a migration
// and its completion, a preemption kill — under -place-check, whose
// clock check asserts the sync-on-read invariant at every placement (a
// lagging refresh-list host has no event due, a lagging host off the list
// is settled and empty, and no lagging host was mutated since it was last
// advanced), and whose fresh views recompute the LLC pressure the hosts
// serve from their runnable-generation cache. A flash crowd fills the
// fleet (preemption, gangs, backfill) and then leaves it idle enough for
// the 10 s descheduler to drain a host. The 7 ms rebalancer syncs the
// fleet often, so most placements and departures between two of its
// ticks find hosts that lag by less than a credit tick. The run must meet
// lagging hosts at placements and at departures, or the lazy path went
// unchecked. Reports must also agree across worker counts.
func TestPlaceCheckLazyClocks(t *testing.T) {
	base := Config{
		Hosts:             6,
		Horizon:           120 * sim.Second,
		Seed:              3,
		ArrivalsPerSecond: 0.3,
		MeanLifetime:      30 * sim.Second,
		Arrival: ArrivalConfig{Process: ArrivalFlash,
			FlashAt: 20 * sim.Second, FlashDuration: 15 * sim.Second, FlashFactor: 20},
		RebalancePeriod:  7 * sim.Millisecond,
		Preempt:          true,
		Gang:             true,
		GangFraction:     0.3,
		Backfill:         true,
		DeschedulePeriod: 10 * sim.Second,
		PlaceCheck:       true,
	}
	var want string
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		c, rep, log := runCluster(t, cfg)
		if want == "" {
			for _, m := range []struct {
				name string
				n    int
			}{
				{"preemption kills", rep.PreemptKills}, {"gangs", rep.GangsAdmitted},
				{"backfills", rep.Backfills}, {"descheduler moves", rep.DeschedMoves},
				{"migrations", rep.Migrations}, {"departures", rep.Departed},
				{"placements meeting a lagging host", c.lagged.placements},
				{"departures meeting a lagging host", c.lagged.departures},
			} {
				if m.n == 0 {
					t.Errorf("the run made no %s: a catch-up site went unexercised", m.name)
				}
			}
			want = rep.String() + log
			continue
		}
		if rep.String()+log != want {
			t.Fatalf("report or event log diverges at workers=%d", workers)
		}
	}
}

// placeOnHost admits one VM on host h at cluster time, through the
// restricted pipeline the preemption and descheduler paths use.
func placeOnHost(t *testing.T, c *Cluster, spec VMSpec, h int) *VM {
	t.Helper()
	hv, plan, err := c.pipeline.Place(&spec, c.liveView(c.hosts[h]))
	if err != nil {
		t.Fatalf("place %s on host%d: %v", spec.Name, h, err)
	}
	vm := &VM{ID: len(c.vms), Spec: spec, life: 30 * sim.Second}
	c.vms = append(c.vms, vm)
	c.placeOn(vm, c.hosts[hv.Index], plan, 1)
	if c.err != nil {
		t.Fatalf("placeOn %s: %v", spec.Name, c.err)
	}
	return vm
}

// clocks copies every host's clock.
func clocks(c *Cluster) []sim.Time {
	out := make([]sim.Time, len(c.hosts))
	for i, ho := range c.hosts {
		out[i] = ho.H.Engine.Now()
	}
	return out
}

// TestDepartureAdvancesOnlyItsHost pins the mutation half of sync on
// read: with nothing queued for admission, a departure runs its own host
// to cluster time and moves no other host's clock, although every other
// host, busy or empty, has an event due by then.
func TestDepartureAdvancesOnlyItsHost(t *testing.T) {
	c, err := New(Config{Hosts: 4, Seed: 5, PlaceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	c.ctx = context.Background()
	var vms []*VM
	for h := 0; h < 3; h++ {
		vms = append(vms, placeOnHost(t, c, VMSpec{Name: fmt.Sprintf("vm%03d", h),
			MemoryMB: 1024, VCPUs: 1, Profiles: []*workload.Profile{steadyApp()}}, h))
	}
	at := sim.Time(50 * sim.Millisecond)
	c.engine.RunUntil(at)
	before := clocks(c)
	for i, ho := range c.hosts {
		if next, ok := ho.H.Engine.NextAt(); before[i] >= at || !ok || next > at {
			t.Fatalf("%s at %v (next event %v): it must lag %v with an event due", ho.Name, before[i], next, at)
		}
	}
	vm := vms[1]
	c.onDepart(vm)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if vm.state != stateDeparted || len(c.queue) != 0 {
		t.Fatalf("vm state %v with %d queued units after the departure", vm.state, len(c.queue))
	}
	for i, now := range clocks(c) {
		want := before[i]
		if i == vm.Host.Index {
			want = at
		}
		if now != want {
			t.Errorf("host%d clock %v after the departure from %s, want %v", i, now, vm.Host.Name, want)
		}
	}
}

// TestSettledHostsLagUntilTouched pins the placement half: an arrival
// advances the refresh-list hosts its placement reads and leaves a
// settled, empty host behind, events due and all, and placing on that
// host catches it up before the mutation, which -place-check confirms at
// markDirty.
func TestSettledHostsLagUntilTouched(t *testing.T) {
	c, err := New(Config{Hosts: 3, Seed: 5, PlaceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	c.ctx = context.Background()
	spec := VMSpec{MemoryMB: 1024, VCPUs: 1, Profiles: []*workload.Profile{steadyApp()}}
	busy := placeOnHost(t, c, VMSpec{Name: "busy", MemoryMB: spec.MemoryMB, VCPUs: 1,
		Profiles: spec.Profiles}, 0).Host
	at := sim.Time(50 * sim.Millisecond)
	c.engine.RunUntil(at)
	c.admitArrivals([]arrival{{spec: spec, life: 30 * sim.Second}})
	if c.err != nil {
		t.Fatal(c.err)
	}
	arrived := c.vms[len(c.vms)-1]
	if arrived.state != stateRunning {
		t.Fatalf("the arrival is %v, not running", arrived.state)
	}
	if now := busy.H.Engine.Now(); now != at {
		t.Fatalf("refresh-list %s at %v after a placement at %v", busy.Name, now, at)
	}
	var lag *Host
	for _, ho := range c.hosts {
		if ho != busy && ho != arrived.Host {
			lag = ho
		}
	}
	next, ok := lag.H.Engine.NextAt()
	if now := lag.H.Engine.Now(); now >= at || !ok || next > at {
		t.Fatalf("%s at %v (next event %v) after a placement at %v: it must lag with an event due",
			lag.Name, now, next, at)
	}
	if lag.queued || len(lag.VMs) > 0 || !lag.settled() {
		t.Fatalf("%s lags but is not a settled, empty host off the refresh list", lag.Name)
	}
	fired := lag.H.Engine.Fired()
	placeOnHost(t, c, VMSpec{Name: "late", MemoryMB: spec.MemoryMB, VCPUs: 1,
		Profiles: []*workload.Profile{steadyApp()}}, lag.Index)
	if now := lag.H.Engine.Now(); now != at || lag.H.Engine.Fired() == fired {
		t.Fatalf("%s at %v having fired %d events after the placement on it at %v",
			lag.Name, now, lag.H.Engine.Fired()-fired, at)
	}
}

// TestPlaceCheckCatchesUntouchedMutation plants a cluster event that
// mutates a lagging host without touch, as a new mutation site that
// forgot the catch-up would, and checks that -place-check stops the run:
// at the mutation's markDirty when the site dirties the host, and at the
// next check that reaches the host when it does not.
func TestPlaceCheckCatchesUntouchedMutation(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		c, err := New(Config{Hosts: 4, Seed: 3, Horizon: 30 * sim.Second, ArrivalsPerSecond: 1,
			MeanLifetime: 10 * sim.Second, RebalancePeriod: -1, PlaceCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		var planted *Host
		c.engine.ScheduleAt(sim.Time(5*sim.Second), "plant", func(*sim.Engine) {
			for _, ho := range c.hosts {
				if ho.H.Engine.Now() < c.engine.Now() {
					if _, err := ho.H.AddDomain("planted", 1024, 1, mem.PolicyLocal, 0); err != nil {
						t.Error(err)
					}
					if dirty {
						c.markDirty(ho)
					}
					planted = ho
					return
				}
			}
		})
		_, err = c.Run(context.Background())
		if planted == nil {
			t.Fatalf("dirty=%v: no host lagged at the planted mutation", dirty)
		}
		if err == nil || !strings.Contains(err.Error(), "place-check") ||
			!strings.Contains(err.Error(), planted.Name+" mutated") {
			t.Fatalf("dirty=%v: a mutation of lagging %s without touch ended the run with %v",
				dirty, planted.Name, err)
		}
	}
}

// TestPlaceCheckGangRollback makes a gang's commit fail on its last
// member, after the first member's domain is built on a host that lagged
// cluster time, so the rollback tears that domain down again. Cluster
// time moves through the cluster engine, since touch catches hosts up to
// it. Under -place-check the rollback must leave every clock current or
// idle, and every cached view equal to a fresh one.
func TestPlaceCheckGangRollback(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 5, PlaceCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	c.ctx = context.Background()
	at := sim.Time(2 * sim.Millisecond)
	c.engine.RunUntil(at)
	for _, ho := range c.hosts {
		if ho.H.Engine.Now() >= at {
			t.Fatalf("%s is current at %v: the gang would not commit on a lagging host",
				ho.Name, ho.H.Engine.Now())
		}
	}
	free := make([]int64, len(c.hosts))
	for i, ho := range c.hosts {
		free[i] = ho.freshView().FreeMB()
	}
	// AddDomain refuses a domain without VCPUs, which the reserve
	// places like any other member.
	var vms []*VM
	for i, spec := range []VMSpec{{MemoryMB: 2048, VCPUs: 2}, {MemoryMB: 1024}} {
		spec.Name = fmt.Sprintf("gang%d", i)
		spec.Group = "g"
		vms = append(vms, &VM{ID: i, Spec: spec})
	}
	u := &admitUnit{vms: vms, gang: true, priority: BestEffort}
	if c.tryAdmitGang(u) {
		t.Fatal("a gang with a member AddDomain refuses was admitted")
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	built := false
	for i, ho := range c.hosts {
		if n := ho.H.ActiveVCPUs(); n != 0 || ho.freshView().FreeMB() != free[i] {
			t.Fatalf("%s keeps %d VCPUs and %d of %d MB free after the rollback",
				ho.Name, n, ho.freshView().FreeMB(), free[i])
		}
		if len(ho.H.AllVCPUs()) > 0 {
			built = true
			if now := ho.H.Engine.Now(); now != at {
				t.Fatalf("%s built the first member at %v, not at cluster time %v", ho.Name, now, at)
			}
		}
	}
	if !built {
		t.Fatal("the rollback found no member domain built")
	}
	c.engine.RunUntil(at.Add(50 * sim.Millisecond))
	c.refreshViews()
	if !c.checkClocks(c.engine.Now()) {
		t.Fatal(c.err)
	}
	for _, ho := range c.hosts {
		if diff := diffViews(&ho.view, ho.freshView()); diff != "" {
			t.Errorf("%s view diverges after the rollback: %s", ho.Name, diff)
		}
	}
}
