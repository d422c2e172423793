package cluster

// One record per decision. Every decision the cluster layer makes on top
// of the host scheduler is described once, at its site, as a decision
// value, and record renders that value to whichever sinks are attached:
// the event stream (Config.Events) gets an Event with its Detail line, the
// flight recorder (Config.Spans) gets its spans. Each sink renders only
// when it is attached, so an events-only run never pays for span
// rendering and an untraced run renders nothing.
//
// Placements are the one exception on the span side: placeDecision
// records their provenance before the decision is acted on, because it
// needs the views the decision read (spans.go).
//
// record is an observer in the §8 sense: it reads the decision, the model
// objects it names and the clock, changes no model state, draws no
// randomness and schedules nothing. Counters stay at the decision sites.

import (
	"fmt"
	"strings"

	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

// decision is one recorded cluster decision: what both sinks need to
// render it. Fields a kind does not use stay zero.
type decision struct {
	kind EventKind
	// vm is the subject VM (a gang's first member for retry and
	// gang-admit).
	vm *VM
	// host is the event's host: the placement host (place), the VM's
	// host (depart, migrate-done), the source (migrate-start, preempt,
	// deschedule) or the backfill target; nil for arrive, retry, reject
	// and gang-admit.
	host *Host
	// target is the destination of migrate-start and deschedule, and of
	// a preemption victim's live migration (nil when it is killed).
	target *Host
	// peer is a preemption's beneficiary or a backfill's blocked head.
	peer *VM
	// gang lists a gang unit's members (retry, gang-admit); nil for a
	// single VM.
	gang []*VM
	// attempt is the placement attempt (place) or the failed attempts
	// so far (retry, reject).
	attempt int
	// dur is the retry backoff, or the migration blackout of
	// migrate-start and a live-migrating preemption.
	dur sim.Duration
	// plan is the placement's memory plan (place).
	plan MemPlan
}

// record renders d to the event stream and the flight recorder, each only
// when attached.
func (c *Cluster) record(d decision) {
	now := c.engine.Now()
	if c.cfg.Events != nil {
		host := ""
		if d.host != nil {
			host = d.host.Name
		}
		c.cfg.Events(Event{At: now, Kind: d.kind, Host: host, VM: d.vm.Spec.Name,
			Detail: d.eventDetail(now)})
	}
	if c.spans != nil {
		c.spans.record(&d, now)
	}
}

// eventDetail renders the human-readable Detail of d's event.
func (d *decision) eventDetail(now sim.Time) string {
	vm := d.vm
	switch d.kind {
	case EventVMArrive:
		return fmt.Sprintf("vm %s arrives: %d MB, %d vcpus, %s%s", vm.Spec.Name,
			vm.Spec.MemoryMB, vm.Spec.VCPUs, vm.Spec.Priority, gangTag(vm.Spec.Group))
	case EventVMPlace:
		return fmt.Sprintf("vm %s placed on %s (%s memory, %s, attempt %d)",
			vm.Spec.Name, d.host.Name, d.plan.Policy, vm.Spec.Priority, d.attempt)
	case EventVMRetry:
		what := "vm " + vm.Spec.Name
		if d.gang != nil {
			what = fmt.Sprintf("gang %s (%d VMs)", vm.Spec.Group, len(d.gang))
		}
		return fmt.Sprintf("%s queued (attempt %d, retry in %v)", what, d.attempt, d.dur)
	case EventVMReject:
		return fmt.Sprintf("vm %s rejected after %d attempts", vm.Spec.Name, d.attempt)
	case EventVMDepart:
		return fmt.Sprintf("vm %s departs %s after %v", vm.Spec.Name, d.host.Name,
			now.Sub(vm.arriveAt))
	case EventMigrateStart:
		return fmt.Sprintf("vm %s migrating %s -> %s (%d MB, blackout %v)",
			vm.Spec.Name, d.host.Name, d.target.Name, vm.Spec.MemoryMB, d.dur)
	case EventMigrateDone:
		return fmt.Sprintf("vm %s resumed on %s", vm.Spec.Name, d.host.Name)
	case EventVMPreempted:
		outcome := "killed and requeued"
		if d.target != nil {
			outcome = "migrating to " + d.target.Name
		}
		return fmt.Sprintf("vm %s preempted off %s for %s, %s",
			vm.Spec.Name, d.host.Name, d.peer.Spec.Name, outcome)
	case EventGangAdmitted:
		return fmt.Sprintf("gang %s admitted: %d VMs placed all-or-nothing",
			vm.Spec.Group, len(d.gang))
	case EventBackfill:
		return fmt.Sprintf("vm %s backfilled onto %s ahead of blocked %s",
			vm.Spec.Name, d.host.Name, d.peer.Spec.Name)
	case EventDeschedule:
		return fmt.Sprintf("vm %s drained off %s to %s (defrag)",
			vm.Spec.Name, d.host.Name, d.target.Name)
	}
	return ""
}

// gangTag renders the gang suffix of an arrival.
func gangTag(group string) string {
	if group == "" {
		return ""
	}
	return ", gang " + group
}

// record renders d's spans under its VM's lifecycle span.
func (sp *clusterSpans) record(d *decision, now sim.Time) {
	vm := d.vm
	name := vm.Spec.Name
	switch d.kind {
	case EventVMArrive:
		ref := sp.t.Begin(now, sp.run, telemetry.SpanVM, "", name, "vm "+name)
		sp.t.SetDetail(ref, fmt.Sprintf("%d MB, %d vcpus, %s%s",
			vm.Spec.MemoryMB, vm.Spec.VCPUs, vm.Spec.Priority, gangTag(vm.Spec.Group)))
		sp.vmRef(vm) // grow
		sp.vm[vm.ID] = ref
	case EventVMPlace:
		// placeDecision recorded it: its spans need the views as they were
		// before the decision, which are gone by now.
	case EventVMRetry:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanRetry, "", name, "retry "+name,
			fmt.Sprintf("attempt %d failed, backoff %v", d.attempt, d.dur))
	case EventVMReject:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanReject, "", name, "reject "+name,
			fmt.Sprintf("rejected after %d attempts", d.attempt))
		sp.t.End(sp.vmRef(vm), now)
	case EventVMDepart:
		ref := sp.vmRef(vm)
		sp.t.Note(ref, fmt.Sprintf("departed %s after %v", d.host.Name, now.Sub(vm.arriveAt)))
		sp.t.End(ref, now)
	case EventMigrateStart:
		ref := sp.t.Begin(now, sp.vmRef(vm), telemetry.SpanMigrate, d.target.Name, name,
			fmt.Sprintf("migrate %s %s→%s", name, d.host.Name, d.target.Name))
		sp.t.SetCost(ref, d.dur)
		sp.t.SetDetail(ref, fmt.Sprintf("%d MB, blackout %v", vm.Spec.MemoryMB, d.dur))
		sp.mig[vm.ID] = ref
	case EventMigrateDone:
		if ref, ok := sp.mig[vm.ID]; ok {
			sp.t.End(ref, now)
			delete(sp.mig, vm.ID)
		}
	case EventVMPreempted:
		outcome := "killed and requeued"
		if d.target != nil {
			outcome = "live-migrating to " + d.target.Name
		}
		ref := sp.t.Point(now, sp.vmRef(vm), telemetry.SpanPreempt, d.host.Name, name,
			"preempt "+name, fmt.Sprintf("for %s (%s > %s), %s", d.peer.Spec.Name,
				d.peer.Spec.Priority, vm.Spec.Priority, outcome))
		if d.dur > 0 {
			sp.t.SetCost(ref, d.dur)
		}
	case EventGangAdmitted:
		parts := make([]string, len(d.gang))
		for i, m := range d.gang {
			parts[i] = m.Spec.Name + "→" + m.Host.Name
		}
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanGang, "", name,
			fmt.Sprintf("gang %s admitted", vm.Spec.Group),
			fmt.Sprintf("%d VMs all-or-nothing: %s", len(d.gang), strings.Join(parts, " ")))
	case EventBackfill:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanBackfill, d.host.Name, name,
			"backfill "+name, fmt.Sprintf("onto %s ahead of blocked %s (shadow check passed)",
				d.host.Name, d.peer.Spec.Name))
	case EventDeschedule:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanDeschedule, d.host.Name, name,
			"deschedule "+name, fmt.Sprintf("drained off %s to %s (defrag)",
				d.host.Name, d.target.Name))
	}
}
