package cluster

import "vprobe/internal/sim"

// EventKind labels a cluster-scoped event. Cluster events describe VM
// lifecycle and placement decisions across hosts; host-internal scheduling
// events stay inside each host's xen.Hypervisor.
type EventKind string

// Cluster event kinds.
const (
	// EventVMArrive: a VM request entered the cluster.
	EventVMArrive EventKind = "vm-arrive"
	// EventVMPlace: a VM was admitted and placed on a host.
	EventVMPlace EventKind = "vm-place"
	// EventVMRetry: placement failed; the VM re-queued with backoff.
	EventVMRetry EventKind = "vm-retry"
	// EventVMReject: the VM exhausted its retries and left the cluster.
	EventVMReject EventKind = "vm-reject"
	// EventVMDepart: the VM's lifetime ended and it was torn down.
	EventVMDepart EventKind = "vm-depart"
	// EventMigrateStart: the rebalancer began moving a VM between hosts.
	EventMigrateStart EventKind = "migrate-start"
	// EventMigrateDone: the inter-host migration completed and the VM
	// resumed on its new host.
	EventMigrateDone EventKind = "migrate-done"
	// EventVMPreempted: a lower-priority VM was evicted (migrated away or
	// killed and requeued) to admit a higher-priority arrival.
	EventVMPreempted EventKind = "vm-preempt"
	// EventGangAdmitted: every member of a VM group was placed in one
	// all-or-nothing commit.
	EventGangAdmitted EventKind = "gang-admit"
	// EventBackfill: a small low-priority VM jumped the admission queue
	// into a fragmentation hole after the shadow-placement check proved
	// the jump cannot delay the blocked queue head.
	EventBackfill EventKind = "vm-backfill"
	// EventDeschedule: the descheduler moved a VM off a near-empty host
	// during low load to defragment the cluster.
	EventDeschedule EventKind = "deschedule"
)

// Event is one structured cluster-level record. Host and VM carry the
// machine-readable identities; Detail is the human-readable rendering.
type Event struct {
	At   sim.Time
	Kind EventKind
	// Host names the host involved ("" when none, e.g. a rejection).
	Host string
	// VM names the subject VM.
	VM     string
	Detail string
}

// String renders the event as a trace line.
func (ev Event) String() string { return ev.Detail }
