package cluster

// The -place-check shadow mode: with Config.PlaceCheck set, every
// incremental placement decision is cross-validated against the
// pre-refactor full rescan. Two comparisons run per single-VM decision:
//
//  1. State: every host's cached view must equal a from-scratch
//     freshView snapshot, field by field — this catches a missed
//     markDirty or a missed refresh at the first event it matters.
//  2. Decision: the generic Pipeline.Place over the fresh views must
//     pick the same host, the same memory plan, and agree on
//     feasibility — this catches heap-order or cache-invalidation bugs.
//
// Both run after a clock check of the sync-on-read invariant (syncHosts):
// every refresh-list host is current or has no event due, every lagging
// host off the list is settled and empty, and no lagging host was
// mutated since it was last advanced. Otherwise the views it serves could
// be stale in a way no refresh would see. The mutation half also runs
// wherever a host is advanced or dirtied: before an advance, so no
// advance absorbs a mutation made at a stale clock, and at markDirty,
// which a mutation of a host that touch did not catch up reaches with the
// host still lagging. The fresh views walk every VCPU without the cached
// LLC pressure, so they also check the runnable generation and the
// live-VCPU list.
//
// A gang's reserve is checked the same way against the what-if
// reservation over copied views that it replaced (checkGangReserve).
//
// A divergence is a simulation-integrity failure: the run stops with a
// diagnostic naming the first differing field. The mode costs O(hosts)
// per decision — it exists to prove the O(dirty) path right, not to run
// in production sweeps.

import (
	"fmt"
	"math"

	"vprobe/internal/sim"
)

// checkPlacement validates one incremental decision against the full
// rescan. Called from Cluster.place when PlaceCheck is on.
func (c *Cluster) checkPlacement(spec *VMSpec, hv *HostView, plan MemPlan, err error) {
	if c.err != nil || !c.checkClocks(c.engine.Now()) {
		return
	}
	//vet:alloc the place-check shadow path deliberately pays full-rescan cost; it is diagnostic-only and off by default
	fresh := make([]*HostView, len(c.hosts))
	for i, ho := range c.hosts {
		fresh[i] = ho.freshView()
		if diff := diffViews(&ho.view, fresh[i]); diff != "" {
			//vet:alloc divergence reporting runs once, immediately before the run stops
			c.failCheck("host %s cached view diverged from full rescan: %s", ho.Name, diff)
			return
		}
	}
	// Both paths fail only with the bare ErrNoHostFits, so agreeing on
	// feasibility is agreeing on the error.
	wantHV, wantPlan, wantErr := c.pipeline.Place(spec, fresh)
	if (err != nil) != (wantErr != nil) {
		//vet:alloc divergence reporting runs once, immediately before the run stops
		c.failCheck("spec %s: incremental err=%v, full rescan err=%v", spec.Name, err, wantErr)
		return
	}
	if err != nil {
		return
	}
	if hv.Index != wantHV.Index {
		//vet:alloc divergence reporting runs once, immediately before the run stops
		c.failCheck("spec %s: incremental picked %s, full rescan picked %s",
			spec.Name, hv.Name, wantHV.Name)
		return
	}
	if plan != wantPlan {
		//vet:alloc divergence reporting runs once, immediately before the run stops
		c.failCheck("spec %s on %s: incremental plan %+v, full rescan plan %+v",
			spec.Name, hv.Name, plan, wantPlan)
	}
}

// checkGangReserve validates one gang reserve against the what-if
// reservation it replaced: the generic Pipeline.Place per member over
// from-scratch view copies that accumulate the earlier members'
// deductions. Every member must land on the same host with the
// same plan, and the reserve must stop at the same member. It runs after
// restoreGang, so its view comparison also proves the restore exact.
func (c *Cluster) checkGangReserve(vms []*VM, slots []gangSlot, placed int) {
	if c.err != nil || !c.checkClocks(c.engine.Now()) {
		return
	}
	what := make([]*HostView, len(c.hosts))
	for i, ho := range c.hosts {
		what[i] = ho.freshView()
		if diff := diffViews(&ho.view, what[i]); diff != "" {
			c.failCheck("host %s view not restored after a gang reserve: %s", ho.Name, diff)
			return
		}
	}
	for i, vm := range vms {
		hv, plan, err := c.pipeline.Place(&vm.Spec, what)
		switch {
		case err != nil && i == placed:
			return
		case err != nil:
			c.failCheck("gang member %s: incremental reserved it on %s, what-if found no host",
				vm.Spec.Name, slots[i].host.Name)
			return
		case i == placed:
			c.failCheck("gang member %s: incremental found no host, what-if reserved it on %s",
				vm.Spec.Name, hv.Name)
			return
		case hv.Index != slots[i].host.Index || plan != slots[i].plan:
			c.failCheck("gang member %s: incremental reserved %s %+v, what-if %s %+v",
				vm.Spec.Name, slots[i].host.Name, slots[i].plan, hv.Name, plan)
			return
		}
		hv.admit(&vm.Spec, plan)
	}
}

// checkClocks asserts the sync-on-read invariant at a placement at
// cluster time t, after refreshViews: a lagging host on the refresh list
// has no event due by t, one off the list is settled and empty, and
// neither was mutated since it was last advanced (checkMark). It reports
// false, after stopping the run, when a host breaks it.
func (c *Cluster) checkClocks(t sim.Time) bool {
	for _, ho := range c.hosts {
		if ho.H.Engine.Now() >= t {
			continue
		}
		c.lagged.placements++
		if !c.checkMark(ho) {
			return false
		}
		if ho.queued {
			if at, ok := ho.H.Engine.NextAt(); ok && at <= t {
				//vet:alloc divergence reporting runs once, immediately before the run stops
				c.failCheck("host %s clock %v lags cluster time %v with an event due at %v",
					ho.Name, ho.H.Engine.Now(), t, at)
				return false
			}
		} else if len(ho.VMs) > 0 || !ho.settled() {
			//vet:alloc divergence reporting runs once, immediately before the run stops
			c.failCheck("host %s clock %v lags cluster time %v off the refresh list but is not settled and empty",
				ho.Name, ho.H.Engine.Now(), t)
			return false
		}
	}
	return true
}

// checkMark asserts that a lagging host was not mutated since it was last
// advanced or dirtied: every mutation goes through touch, which catches
// the host up first. It reports false, after stopping the run, when the
// host breaks it.
func (c *Cluster) checkMark(ho *Host) bool {
	if markOf(ho) != c.marks[ho.Index] {
		//vet:alloc divergence reporting runs once, immediately before the run stops
		c.failCheck("host %s mutated at cluster time %v without catching up from %v",
			ho.Name, c.engine.Now(), ho.H.Engine.Now())
		return false
	}
	return true
}

// checkMarks runs checkMark on every host of an advance.
func (c *Cluster) checkMarks(hosts []*Host) bool {
	for _, ho := range hosts {
		if !c.checkMark(ho) {
			return false
		}
	}
	return true
}

// checkMutated runs at markDirty, right after a mutation: the host must
// be current, since touch caught it up, and its mark is recorded as the
// one the mutation left.
func (c *Cluster) checkMutated(ho *Host) {
	if ho.H.Engine.Now() < c.engine.Now() {
		//vet:alloc divergence reporting runs once, immediately before the run stops
		c.failCheck("host %s mutated at cluster time %v without catching up from %v",
			ho.Name, c.engine.Now(), ho.H.Engine.Now())
		return
	}
	c.marks[ho.Index] = markOf(ho)
}

// hostMark is what every cluster→host mutation moves: the VCPU count
// (AddDomain) or the runnable generation (AttachApp, ActivateDomain, and
// DestroyDomain through the stop step it starts with).
type hostMark struct {
	vcpus int
	gen   uint64
}

func markOf(ho *Host) hostMark {
	return hostMark{len(ho.H.AllVCPUs()), ho.H.RunnableGen()}
}

// markAll records the marks of hosts just advanced.
func (c *Cluster) markAll(hosts []*Host) {
	for _, ho := range hosts {
		c.marks[ho.Index] = markOf(ho)
	}
}

// failCheck records a shadow-check divergence and stops the run.
func (c *Cluster) failCheck(format string, args ...any) {
	//vet:alloc divergence reporting runs once, immediately before the run stops
	c.err = fmt.Errorf("cluster: place-check: "+format, args...)
	c.engine.Stop()
}

// diffViews compares a cached view against a fresh snapshot and names the
// first differing field ("" when identical). Float fields compare exactly:
// the cached path recomputes them from the same inputs with the same
// arithmetic, so any difference — even one ULP — is a missed refresh.
func diffViews(cached, fresh *HostView) string {
	switch {
	case cached.Index != fresh.Index:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("Index %d != %d", cached.Index, fresh.Index)
	case cached.Name != fresh.Name:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("Name %q != %q", cached.Name, fresh.Name)
	case cached.Nodes != fresh.Nodes:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("Nodes %d != %d", cached.Nodes, fresh.Nodes)
	case cached.CPUs != fresh.CPUs:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("CPUs %d != %d", cached.CPUs, fresh.CPUs)
	case cached.TotalMB != fresh.TotalMB:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("TotalMB %d != %d", cached.TotalMB, fresh.TotalMB)
	case cached.GuestVCPUs != fresh.GuestVCPUs:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("GuestVCPUs %d != %d", cached.GuestVCPUs, fresh.GuestVCPUs)
	case cached.VCPUCap != fresh.VCPUCap:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("VCPUCap %d != %d", cached.VCPUCap, fresh.VCPUCap)
	case cached.VMs != fresh.VMs:
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("VMs %d != %d", cached.VMs, fresh.VMs)
	case !floatEq(cached.LLCPressure, fresh.LLCPressure):
		//vet:alloc first-difference rendering happens at most once per run, on the failure path
		return fmt.Sprintf("LLCPressure %v != %v", cached.LLCPressure, fresh.LLCPressure)
	}
	for n := range fresh.FreePerNodeMB {
		if cached.FreePerNodeMB[n] != fresh.FreePerNodeMB[n] {
			//vet:alloc first-difference rendering happens at most once per run, on the failure path
			return fmt.Sprintf("FreePerNodeMB[%d] %d != %d",
				n, cached.FreePerNodeMB[n], fresh.FreePerNodeMB[n])
		}
	}
	return ""
}

// floatEq is bitwise float equality (NaN-safe): the check demands exact
// recomputation, not tolerance.
func floatEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
