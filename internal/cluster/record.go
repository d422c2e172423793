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
	"strconv"
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
	name := vm.Spec.Name
	switch d.kind {
	case EventVMArrive:
		return "vm " + name + " arrives: " + vmShape(vm)
	case EventVMPlace:
		return "vm " + name + " placed on " + d.host.Name + " (" + d.plan.Policy.String() + " memory, " +
			vm.Spec.Priority.String() + ", attempt " + strconv.Itoa(d.attempt) + ")"
	case EventVMRetry:
		what := "vm " + name
		if d.gang != nil {
			what = "gang " + vm.Spec.Group + " (" + strconv.Itoa(len(d.gang)) + " VMs)"
		}
		return what + " queued (attempt " + strconv.Itoa(d.attempt) + ", retry in " + d.dur.String() + ")"
	case EventVMReject:
		return "vm " + name + " rejected after " + strconv.Itoa(d.attempt) + " attempts"
	case EventVMDepart:
		return "vm " + name + " departs " + d.host.Name + " after " + now.Sub(vm.arriveAt).String()
	case EventMigrateStart:
		return "vm " + name + " migrating " + d.host.Name + " -> " + d.target.Name + " (" +
			strconv.FormatInt(vm.Spec.MemoryMB, 10) + " MB, blackout " + d.dur.String() + ")"
	case EventMigrateDone:
		return "vm " + name + " resumed on " + d.host.Name
	case EventVMPreempted:
		outcome := "killed and requeued"
		if d.target != nil {
			outcome = "migrating to " + d.target.Name
		}
		return "vm " + name + " preempted off " + d.host.Name + " for " + d.peer.Spec.Name + ", " + outcome
	case EventGangAdmitted:
		return "gang " + vm.Spec.Group + " admitted: " + strconv.Itoa(len(d.gang)) + " VMs placed all-or-nothing"
	case EventBackfill:
		return "vm " + name + " backfilled onto " + d.host.Name + " ahead of blocked " + d.peer.Spec.Name
	case EventDeschedule:
		return "vm " + name + " drained off " + d.host.Name + " to " + d.target.Name + " (defrag)"
	}
	return ""
}

// vmShape renders what an arrival asks for: memory, VCPUs, priority and
// gang.
func vmShape(vm *VM) string {
	return strconv.FormatInt(vm.Spec.MemoryMB, 10) + " MB, " + strconv.Itoa(vm.Spec.VCPUs) + " vcpus, " +
		vm.Spec.Priority.String() + gangTag(vm.Spec.Group)
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
		sp.t.SetDetail(ref, vmShape(vm))
		sp.vmRef(vm) // grow
		sp.vm[vm.ID] = ref
	case EventVMPlace:
		// placeDecision recorded it: its spans need the views as they were
		// before the decision, which are gone by now.
	case EventVMRetry:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanRetry, "", name, "retry "+name,
			"attempt "+strconv.Itoa(d.attempt)+" failed, backoff "+d.dur.String())
	case EventVMReject:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanReject, "", name, "reject "+name,
			"rejected after "+strconv.Itoa(d.attempt)+" attempts")
		sp.t.End(sp.vmRef(vm), now)
	case EventVMDepart:
		ref := sp.vmRef(vm)
		sp.t.Note(ref, "departed "+d.host.Name+" after "+now.Sub(vm.arriveAt).String())
		sp.t.End(ref, now)
	case EventMigrateStart:
		ref := sp.t.Begin(now, sp.vmRef(vm), telemetry.SpanMigrate, d.target.Name, name,
			"migrate "+name+" "+d.host.Name+"→"+d.target.Name)
		sp.t.SetCost(ref, d.dur)
		sp.t.SetDetail(ref, strconv.FormatInt(vm.Spec.MemoryMB, 10)+" MB, blackout "+d.dur.String())
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
			"preempt "+name, "for "+d.peer.Spec.Name+" ("+d.peer.Spec.Priority.String()+" > "+
				vm.Spec.Priority.String()+"), "+outcome)
		if d.dur > 0 {
			sp.t.SetCost(ref, d.dur)
		}
	case EventGangAdmitted:
		parts := make([]string, len(d.gang))
		for i, m := range d.gang {
			parts[i] = m.Spec.Name + "→" + m.Host.Name
		}
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanGang, "", name,
			"gang "+vm.Spec.Group+" admitted",
			strconv.Itoa(len(d.gang))+" VMs all-or-nothing: "+strings.Join(parts, " "))
	case EventBackfill:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanBackfill, d.host.Name, name,
			"backfill "+name, "onto "+d.host.Name+" ahead of blocked "+d.peer.Spec.Name+" (shadow check passed)")
	case EventDeschedule:
		sp.t.Point(now, sp.vmRef(vm), telemetry.SpanDeschedule, d.host.Name, name,
			"deschedule "+name, "drained off "+d.host.Name+" to "+d.target.Name+" (defrag)")
	}
}
