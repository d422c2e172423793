package vprobe

import (
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/xen"
)

// EventKind labels a scheduling event.
type EventKind string

// Scheduling event kinds delivered to Config.Events.
const (
	// EventDispatch: a VCPU starts a quantum on a PCPU.
	EventDispatch EventKind = EventKind(xen.EventDispatch)
	// EventAppFinish: an application completed all its work.
	EventAppFinish EventKind = EventKind(xen.EventAppFinish)
	// EventBlock: a VCPU blocked (timer, I/O, barrier, network wait).
	EventBlock EventKind = EventKind(xen.EventBlock)
	// EventGuestMove: the guest OS parked a thread on another VCPU.
	EventGuestMove EventKind = EventKind(xen.EventGuestMove)
	// EventDomPause / EventDomResume / EventDomDestroy: domain lifecycle.
	EventDomPause   EventKind = EventKind(xen.EventDomPause)
	EventDomResume  EventKind = EventKind(xen.EventDomResume)
	EventDomDestroy EventKind = EventKind(xen.EventDomDestroy)
)

// Cluster-scoped event kinds delivered to ClusterConfig.Events. These
// describe VM admission, placement, and inter-host migration rather than
// single-host scheduling; their events carry Host and VM instead of
// VCPU/Node.
const (
	// EventVMArrive: a VM entered the admission queue.
	EventVMArrive EventKind = EventKind(cluster.EventVMArrive)
	// EventVMPlace: a VM was placed on a host (admission or migration).
	EventVMPlace EventKind = EventKind(cluster.EventVMPlace)
	// EventVMRetry: placement failed; the VM re-queued with backoff.
	EventVMRetry EventKind = EventKind(cluster.EventVMRetry)
	// EventVMReject: the VM exhausted its retries and was rejected.
	EventVMReject EventKind = EventKind(cluster.EventVMReject)
	// EventVMDepart: a VM reached the end of its lifetime.
	EventVMDepart EventKind = EventKind(cluster.EventVMDepart)
	// EventMigrateStart / EventMigrateDone: inter-host live migration.
	EventMigrateStart EventKind = EventKind(cluster.EventMigrateStart)
	EventMigrateDone  EventKind = EventKind(cluster.EventMigrateDone)
	// EventVMPreempted: a lower-priority VM was evicted (migrated or
	// killed and requeued) to admit a higher-priority arrival.
	EventVMPreempted EventKind = EventKind(cluster.EventVMPreempted)
	// EventGangAdmitted: a VM group was placed all-or-nothing.
	EventGangAdmitted EventKind = EventKind(cluster.EventGangAdmitted)
	// EventBackfill: a small VM jumped the admission queue into a hole
	// that could not delay the blocked head.
	EventBackfill EventKind = EventKind(cluster.EventBackfill)
	// EventDeschedule: the defragmentation pass drained a VM off an
	// underloaded host.
	EventDeschedule EventKind = EventKind(cluster.EventDeschedule)
)

// Event is one structured scheduling trace record. The typed fields carry
// machine-readable identities; Detail is the human-readable rendering.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind labels what happened.
	Kind EventKind
	// VCPU is the machine-wide VCPU id, -1 when the event is not
	// VCPU-scoped (e.g. domain lifecycle).
	VCPU int
	// Node is the NUMA node involved, -1 when placement is not part of
	// the event.
	Node int
	// App names the workload on the subject VCPU, when it has one.
	App string
	// Host names the cluster host involved; empty for single-host
	// scheduling events.
	Host string
	// VM names the cluster VM involved; empty for single-host scheduling
	// events.
	VM string
	// Detail is the formatted trace line.
	Detail string
}

// String renders the event as a trace line.
func (ev Event) String() string { return ev.Detail }

// EventSink consumes scheduling events during a run.
type EventSink interface {
	HandleEvent(Event)
}

// EventFunc adapts a function to EventSink.
type EventFunc func(Event)

// HandleEvent calls f.
func (f EventFunc) HandleEvent(ev Event) { f(ev) }

// eventHook builds the xen-level event hook delivering to sink (nil when
// tracing is off, so the hypervisor skips formatting entirely).
func eventHook(sink EventSink) func(xen.Event) {
	if sink == nil {
		return nil
	}
	return func(xe xen.Event) {
		sink.HandleEvent(Event{
			At:     time.Duration(xe.At) * time.Microsecond,
			Kind:   EventKind(xe.Kind),
			VCPU:   int(xe.VCPU),
			Node:   int(xe.Node),
			App:    xe.App,
			Detail: xe.Detail,
		})
	}
}
