// Package xen models the hypervisor substrate the paper modifies: domains
// (VMs), VCPUs, PCPUs with per-PCPU run queues, the Credit scheduler's
// accounting (30 ms accounting epochs, 10 ms ticks, UNDER/OVER priorities),
// context switching with cold-cache cost, idle-time work stealing, and
// virtualized per-VCPU PMU counters.
//
// Scheduling policy is pluggable (see Policy); internal/sched provides the
// five policies evaluated in the paper. The simulation is driven by
// internal/sim and produces work through internal/perf.
package xen

import (
	"fmt"

	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/perf"
	"vprobe/internal/pmu"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// VCPUID identifies a VCPU machine-wide.
type VCPUID int

// DomID identifies a domain (VM).
type DomID int

// VCPUState is the lifecycle state of a VCPU.
type VCPUState int

const (
	// StateBlocked: not runnable (idle guest CPU, or finished app).
	StateBlocked VCPUState = iota
	// StateRunnable: waiting in some PCPU's run queue.
	StateRunnable
	// StateRunning: currently executing on a PCPU.
	StateRunning
)

// String names the state.
func (s VCPUState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	default:
		return fmt.Sprintf("VCPUState(%d)", int(s))
	}
}

// Priority is the Credit scheduler's run-queue priority. Smaller values
// schedule first.
type Priority int

const (
	// PrioBoost: the VCPU just woke up (Xen's BOOST); it preempts
	// lower-priority runners and schedules ahead of everything. Boost
	// lasts until the VCPU is next dispatched.
	PrioBoost Priority = iota
	// PrioUnder: the VCPU has remaining credits.
	PrioUnder
	// PrioOver: the VCPU has exhausted its credits.
	PrioOver
)

// String names the priority.
func (p Priority) String() string {
	switch p {
	case PrioBoost:
		return "BOOST"
	case PrioUnder:
		return "UNDER"
	case PrioOver:
		return "OVER"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// VCPU is a virtual CPU. The csched_vcpu extensions the paper adds in
// §IV-B (node_affinity, LLC_pressure, vcpu_type) appear here verbatim.
type VCPU struct {
	ID  VCPUID
	Dom *Domain
	// App is the workload bound to this VCPU (guest thread pinning);
	// nil marks a guest-idle VCPU that never runs.
	App *workload.Profile
	// InstrDone is retired work; selects the app phase and decides
	// completion.
	InstrDone float64
	// phase caches App.PhaseAt(InstrDone). The writers of App and
	// InstrDone (AttachApp, endQuantum, swapGuestThreads) keep it current,
	// so the per-dispatch co-runner scan reads a pointer instead of
	// re-walking the phase table.
	phase *workload.Phase
	// PageDist is the VCPU's (its app's) current page placement.
	PageDist mem.Dist

	Counters *pmu.Counters
	Sampler  *pmu.Sampler

	State    VCPUState
	OnPCPU   numa.CPUID // valid while Running; queue PCPU while Runnable
	Credits  int
	Priority Priority

	// Paper §IV-B scheduler-visible characteristics (updated by the
	// PMU data analyzer at each sampling period).
	NodeAffinity numa.NodeID
	LLCPressure  float64
	Type         core.VCPUType
	// AssignedNode is the node the periodical partitioning assigned this
	// VCPU to for the current sampling period (NoNode when unassigned,
	// e.g. LLC-FR VCPUs). The NUMA-aware load balancer does not steal an
	// assigned VCPU across nodes; the default Credit balancer ignores
	// it — which is exactly why VCPU-P underperforms vProbe.
	AssignedNode numa.NodeID

	// Physical modelling state (invisible to schedulers).
	ColdLines  float64
	LastSocket numa.NodeID
	// lastQueuedAt is when the VCPU last entered a run queue, for the
	// cache-hot steal protection.
	lastQueuedAt sim.Time
	// nodeTime accumulates run time per node during the first-touch
	// window; firstTouched flips once the pages settle.
	nodeTime     []sim.Duration
	firstTouched bool
	// paused marks a VCPU stopped by PauseDomain; it ignores wakeups
	// until ResumeDomain.
	paused bool

	// PinnedPCPU, when >= 0, hard-pins the VCPU (used by the Fig. 3
	// calibration run). Pinned VCPUs are never stolen or migrated.
	PinnedPCPU numa.CPUID

	// pendingNode requests a migration to a node at next dequeue
	// (set by periodical partitioning while the VCPU is running).
	pendingNode numa.NodeID

	// pendingOverhead is hypervisor bookkeeping (PMU reads, lock waits,
	// partitioning) charged against the VCPU's next quantum.
	pendingOverhead float64

	// out is the VCPU's reusable quantum outcome: dispatch evaluates the
	// performance model into it (perf.ExecuteInto) and endQuantum consumes
	// it, so the per-quantum Node vector is allocated once per VCPU.
	out perf.Outcome

	// wakeTimer is the reusable unblock timer (bound to this VCPU at
	// creation); wakeLast is the PCPU the VCPU last blocked on, which the
	// pre-bound callback reads instead of capturing it per block.
	wakeTimer *sim.Timer
	wakeLast  *PCPU

	Done       bool
	FinishTime sim.Time
	StartNode  numa.NodeID

	// Lifetime totals for metrics.
	RunTime      sim.Duration
	Migrations   int // cross-PCPU placements
	NodeMoves    int // cross-node placements
	Switches     int // times scheduled in after another VCPU
	OverheadTime sim.Duration
}

// Runnable reports whether the VCPU wants CPU time.
func (v *VCPU) Runnable() bool {
	return v.App != nil && !v.Done && v.State != StateBlocked
}

// RemainingInstructions returns the work left for a batch app; servers and
// hungry loops effectively never finish.
func (v *VCPU) RemainingInstructions() float64 {
	if v.App == nil {
		return 0
	}
	rem := v.App.TotalInstructions - v.InstrDone
	if rem < 0 {
		return 0
	}
	return rem
}

// Phase returns the app phase currently executing (nil without an app).
func (v *VCPU) Phase() *workload.Phase { return v.phase }

// RequestsServed converts retired work to served requests for servers.
func (v *VCPU) RequestsServed() float64 {
	if v.App == nil || !v.App.Server || v.App.InstrPerRequest <= 0 {
		return 0
	}
	return v.InstrDone / v.App.InstrPerRequest
}

// AddOverhead charges hypervisor bookkeeping cycles to the VCPU's next
// quantum and to its lifetime overhead metric.
func (v *VCPU) AddOverhead(cycles float64, cyclesPerMicro float64) {
	if cycles <= 0 {
		return
	}
	v.pendingOverhead += cycles
	v.OverheadTime += sim.Duration(cycles / cyclesPerMicro)
}

// Domain is a VM.
type Domain struct {
	ID       DomID
	Name     string
	MemoryMB int64
	// MemDist is the machine-node distribution of the VM's memory.
	MemDist mem.Dist
	VCPUs   []*VCPU
	// Paused and Destroyed are lifecycle flags (see Hypervisor.PauseDomain).
	Paused    bool
	Destroyed bool
	// activated flips once the domain's VCPUs have been placed (by Start,
	// or by ActivateDomain for domains hot-added to a running host).
	activated bool
}

// AllDone reports whether every finite app-carrying VCPU finished its
// work. Endless apps (hungry loops, guest housekeeping, open-ended
// servers) do not block completion, and a destroyed domain counts as
// complete.
func (d *Domain) AllDone() bool {
	if d.Destroyed {
		return true
	}
	for _, v := range d.VCPUs {
		if v.App != nil && !v.App.Endless() && !v.Done {
			return false
		}
	}
	return true
}
