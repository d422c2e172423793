package cluster

import (
	"fmt"

	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// VMSpec is a placement request: the resources a VM asks for and the
// workloads its VCPUs will run. Profiles[i] is bound to VCPU i; a nil
// entry leaves that VCPU guest-idle.
type VMSpec struct {
	Name     string
	MemoryMB int64
	VCPUs    int
	Profiles []*workload.Profile

	// Priority is the VM's admission class: higher classes sort first in
	// the admission queue and, when preemption is enabled, may evict
	// strictly lower classes. The zero value is BestEffort.
	Priority Priority
	// Group names the VM's gang ("" for singletons): members of one group
	// arrive together and, when gang admission is enabled, are placed
	// all-or-nothing.
	Group string
}

// Priority is a VM's admission priority class. Higher values outrank
// lower: the admission queue drains in descending priority, and preemption
// may evict only strictly-lower-priority victims.
type Priority int

// The priority classes, lowest first.
const (
	// BestEffort VMs are the preemption fodder: placed when room exists,
	// evicted first when a higher class needs the space.
	BestEffort Priority = iota
	// Standard is the default class for ordinary workloads.
	Standard
	// Critical VMs outrank everything and may preempt both lower classes.
	Critical
)

// String returns the class name used in specs, flags, and reports.
func (p Priority) String() string {
	switch p {
	case BestEffort:
		return "best-effort"
	case Standard:
		return "standard"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Weight is the class's weight in priority-weighted latency aggregates
// (best-effort 1, standard 2, critical 4).
func (p Priority) Weight() float64 {
	switch p {
	case Standard:
		return 2
	case Critical:
		return 4
	}
	return 1
}

// Priorities returns the classes lowest-first.
func Priorities() []Priority { return []Priority{BestEffort, Standard, Critical} }

// vmState is the cluster-side lifecycle of a VM.
type vmState int

const (
	// statePending: arrived, not placed yet (possibly between retries).
	statePending vmState = iota
	// stateRunning: placed on a host.
	stateRunning
	// stateMigrating: being copied between hosts; the source domain is
	// gone and the target domain is built but not yet activated.
	stateMigrating
	// stateRejected: gave up after exhausting placement retries.
	stateRejected
	// stateDeparted: lifetime over, torn down.
	stateDeparted
)

// VM is one placement request tracked through its cluster lifetime.
type VM struct {
	ID   int
	Spec VMSpec

	// Host and dom are the current placement (nil until placed).
	Host *Host
	dom  *xen.Domain

	state      vmState
	arriveAt   sim.Time
	departAt   sim.Time // 0 while unplaced (including after a preemption kill)
	placedAt   sim.Time // last (re)placement time, for migration cooldown
	Migrations int

	// life is the lifetime still owed: drawn at arrival (so the arrival
	// stream is identical whatever the admission mechanisms do with it)
	// and rewritten to the remaining balance when a preemption kill
	// returns the VM to the queue.
	life sim.Duration
	// departSeq invalidates scheduled departure timers: a preemption kill
	// bumps it, so the timer armed at the previous placement fires as a
	// no-op and a fresh one is armed at re-placement.
	departSeq int
	// admitted marks that the first placement already happened, so wait
	// statistics are recorded once per VM, not once per re-placement.
	admitted bool
}

// migrationProfiles snapshots the remaining work of the VM's current
// domain as fresh profiles for re-attachment on a migration target. Batch
// apps carry over exactly their unretired instructions; endless apps
// (servers, burners) restart their open-ended streams. Finished or
// app-less VCPUs yield nil entries.
func (vm *VM) migrationProfiles() []*workload.Profile {
	out := make([]*workload.Profile, len(vm.dom.VCPUs))
	for i, v := range vm.dom.VCPUs {
		if v.App == nil || v.Done {
			continue
		}
		p := v.App.Clone()
		if !p.Endless() && !p.Server {
			rem := v.RemainingInstructions()
			if rem <= 0 {
				continue
			}
			p.TotalInstructions = rem
		}
		out[i] = p
	}
	return out
}
