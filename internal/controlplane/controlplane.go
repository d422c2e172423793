// Package controlplane holds the cluster's policy brain: the pure,
// deterministic planners behind priority-aware admission. Where
// internal/cluster's Filter/Score pipeline answers "which host takes this
// VM?", this package answers the harder control-plane questions that only
// arise when the pipeline says "none":
//
//   - Preemption (PlanPreemption): find, per host, a minimal set of
//     strictly-lower-priority victims whose eviction admits a blocked
//     arrival, priced by the migration cost model, and pick the cheapest
//     host.
//   - Backfill (ShadowReservation / CanBackfill): decide whether a small
//     low-priority VM may jump the admission queue into a fragmentation
//     hole without delaying the blocked queue head, by shadow-placing the
//     head against the known departure schedule.
//   - Defragmentation (PlanDrain): during low load, pick the emptiest host
//     whose entire population can be re-placed elsewhere, so the cluster
//     consolidates and fragmentation holes close.
//
// Every planner is a pure function of plain-data snapshots (Request,
// HostCap, Departure) plus a caller-supplied FitFunc wrapping the real
// placement filters. Nothing here touches live hosts, RNGs, or clocks, and
// every search order carries a total tiebreak (priority, cost, ID, host
// index) — which is what lets internal/cluster call these planners between
// parallel host advances and still produce byte-identical runs at any
// worker count.
package controlplane

import (
	"fmt"
)

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

// Request is a pending placement as the control plane sees it: the
// resource ask and the class, stripped of workload detail.
type Request struct {
	ID       int
	MemoryMB int64
	VCPUs    int
	Priority Priority
}

// Victim is one evictable running VM on a host: what evicting it frees,
// and what the eviction costs (the full-copy migration price, charged
// whether the victim is live-migrated or killed and requeued).
type Victim struct {
	ID             int
	MemoryMB       int64
	VCPUs          int
	Priority       Priority
	FreesPerNodeMB []int64
	CostCycles     float64
}

// HostCap is the capacity snapshot of one host the planners search over.
// Victims lists the evictable VMs relevant to the current question
// (strictly-lower-priority residents for PlanPreemption, every movable
// resident for PlanDrain); LiveVMs is the host's total live population, so
// PlanDrain can tell "all residents movable" from "some pinned".
type HostCap struct {
	Index         int
	FreePerNodeMB []int64
	GuestVCPUs    int
	VCPUCap       int
	LiveVMs       int
	Victims       []Victim
}

// FreeMB sums the per-node free memory.
func (h *HostCap) FreeMB() int64 {
	var t int64
	for _, f := range h.FreePerNodeMB {
		t += f
	}
	return t
}

// clone deep-copies the capacity fields (Victims are shared; planners
// never mutate them).
func (h *HostCap) clone() HostCap {
	c := *h
	c.FreePerNodeMB = append([]int64(nil), h.FreePerNodeMB...)
	return c
}

// addTo adds per-node deltas to a free-memory vector in place (a
// departure or an eviction replayed onto a snapshot).
func addTo(free, deltas []int64) {
	for i := range deltas {
		if i < len(free) {
			free[i] += deltas[i]
		}
	}
}

// FitFunc reports whether req fits host at the given what-if capacity. The
// cluster wraps its placement pipeline's filter phase here, so every
// planner admits exactly what the real pipeline would.
type FitFunc func(req Request, host *HostCap) bool
