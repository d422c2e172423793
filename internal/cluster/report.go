package cluster

import (
	"fmt"
	"strings"

	"vprobe/internal/metrics"
	"vprobe/internal/sim"
)

// priorityStats accumulates admission outcomes for one priority class.
type priorityStats struct {
	Arrivals  int
	Placed    int
	Rejected  int
	WaitTotal sim.Duration // arrival-to-first-placement, summed over Placed
}

// Report summarises one cluster run: admission outcomes, migration
// activity, and placement quality (remote-access ratio, utilization),
// cluster-wide and per host.
type Report struct {
	Policy    string
	Scheduler string
	Hosts     int
	Horizon   sim.Duration

	Arrivals   int
	Placed     int
	Retries    int
	Rejected   int
	Departed   int
	Migrations int

	// Control-plane activity: preemption victims evicted (PreemptKills of
	// them killed and requeued rather than migrated), gangs admitted
	// all-or-nothing, queue jumps through backfill, and descheduler
	// defragmentation moves.
	Preemptions   int
	PreemptKills  int
	GangsAdmitted int
	Backfills     int
	DeschedMoves  int

	// RejectionRate is Rejected/Arrivals.
	RejectionRate float64
	// RemoteRatio is the access-weighted remote-memory-access ratio over
	// every VCPU any host ever ran.
	RemoteRatio float64
	// Utilization is total PCPU busy time over Hosts*CPUs*Horizon.
	Utilization float64

	PerHost []HostReport
	// PerPriority is one row per admission class, best-effort first.
	PerPriority []PriorityReport
}

// PriorityReport is one admission class's slice of the run.
type PriorityReport struct {
	Class    string
	Arrivals int
	Placed   int
	Rejected int
	// MeanWait is the mean arrival-to-first-placement latency of the
	// class's placed VMs.
	MeanWait sim.Duration
}

// HostReport is one host's slice of the run.
type HostReport struct {
	Name string
	// Placed counts cumulative placements (admissions + migrations in);
	// Resident is the live VM count at the horizon.
	Placed   int
	Resident int
	// RemoteRatio and Utilization are the host-local qualities.
	RemoteRatio float64
	Utilization float64
}

// report assembles the Report after the final host sync.
func (c *Cluster) report() *Report {
	r := &Report{
		Policy:     c.cfg.Policy,
		Scheduler:  string(c.cfg.Scheduler),
		Hosts:      len(c.hosts),
		Horizon:    c.cfg.Horizon,
		Arrivals:   c.stats.Arrivals,
		Placed:     c.stats.Placed,
		Retries:    c.stats.Retries,
		Rejected:   c.stats.Rejected,
		Departed:   c.stats.Departed,
		Migrations: c.stats.Migrations,

		Preemptions:   c.stats.Preemptions,
		PreemptKills:  c.stats.PreemptKills,
		GangsAdmitted: c.stats.GangsAdmitted,
		Backfills:     c.stats.Backfills,
		DeschedMoves:  c.stats.DeschedMoves,
	}
	for _, p := range Priorities() {
		ps := c.pstats[p]
		pr := PriorityReport{
			Class:    p.String(),
			Arrivals: ps.Arrivals,
			Placed:   ps.Placed,
			Rejected: ps.Rejected,
		}
		if ps.Placed > 0 {
			pr.MeanWait = ps.WaitTotal / sim.Duration(ps.Placed)
		}
		r.PerPriority = append(r.PerPriority, pr)
	}
	if r.Arrivals > 0 {
		r.RejectionRate = float64(r.Rejected) / float64(r.Arrivals)
	}
	var total, remote float64
	var busy sim.Duration
	var cpus int
	for _, ho := range c.hosts {
		t, rem := ho.counterTotals()
		total += t
		remote += rem
		hostBusy := ho.H.TotalBusyTime()
		busy += hostBusy
		cpus += ho.Top.NumCPUs()
		hr := HostReport{
			Name:        ho.Name,
			Placed:      ho.Placed,
			Resident:    len(ho.VMs),
			RemoteRatio: ho.remoteRatio(),
		}
		if c.cfg.Horizon > 0 {
			hr.Utilization = hostBusy.Seconds() /
				(float64(ho.Top.NumCPUs()) * c.cfg.Horizon.Seconds())
		}
		r.PerHost = append(r.PerHost, hr)
	}
	if total > 0 {
		r.RemoteRatio = remote / total
	}
	if cpus > 0 && c.cfg.Horizon > 0 {
		r.Utilization = busy.Seconds() / (float64(cpus) * c.cfg.Horizon.Seconds())
	}
	return r
}

// String renders the report as aligned tables.
func (r *Report) String() string {
	var b strings.Builder
	sum := metrics.NewTable(
		fmt.Sprintf("cluster: %d hosts, policy %s, per-host scheduler %s, %v horizon",
			r.Hosts, r.Policy, r.Scheduler, r.Horizon),
		"arrivals", "placed", "retries", "rejected", "departed", "migrations",
		"reject-rate", "remote-ratio", "utilization")
	sum.AddRow(
		fmt.Sprint(r.Arrivals), fmt.Sprint(r.Placed), fmt.Sprint(r.Retries),
		fmt.Sprint(r.Rejected), fmt.Sprint(r.Departed), fmt.Sprint(r.Migrations),
		metrics.Pct(r.RejectionRate), metrics.Pct(r.RemoteRatio),
		metrics.Pct(r.Utilization))
	b.WriteString(sum.String())

	cp := metrics.NewTable("control plane",
		"preemptions", "preempt-kills", "gangs", "backfills", "desched-moves")
	cp.AddRow(fmt.Sprint(r.Preemptions), fmt.Sprint(r.PreemptKills),
		fmt.Sprint(r.GangsAdmitted), fmt.Sprint(r.Backfills),
		fmt.Sprint(r.DeschedMoves))
	b.WriteString(cp.String())

	pp := metrics.NewTable("per priority class", "class", "arrivals",
		"placed", "rejected", "mean-wait")
	for _, p := range r.PerPriority {
		pp.AddRow(p.Class, fmt.Sprint(p.Arrivals), fmt.Sprint(p.Placed),
			fmt.Sprint(p.Rejected), p.MeanWait.String())
	}
	b.WriteString(pp.String())

	ph := metrics.NewTable("per host", "host", "placed", "resident",
		"remote-ratio", "utilization")
	for _, h := range r.PerHost {
		ph.AddRow(h.Name, fmt.Sprint(h.Placed), fmt.Sprint(h.Resident),
			metrics.Pct(h.RemoteRatio), metrics.Pct(h.Utilization))
	}
	b.WriteString(ph.String())
	return b.String()
}
