package cluster

import (
	"vprobe/internal/numa"
	"vprobe/internal/telemetry"
	"vprobe/internal/xen"
)

// clusterTelemetry is the cluster's pre-bound handle set: admission and
// migration gauges plus per-host load gauges. Host-internal series
// (dispatches, steals, quantum histogram, ...) are registered separately
// per host by xen.AttachTelemetry with a host label.
type clusterTelemetry struct {
	c *Cluster

	// Lifecycle totals mirroring Cluster.stats. They are monotone but
	// exported as gauges because the sampler copies the model's own
	// counters instead of double-counting events.
	arrivals   *telemetry.Gauge
	placed     *telemetry.Gauge
	retries    *telemetry.Gauge
	rejected   *telemetry.Gauge
	departed   *telemetry.Gauge
	migrations *telemetry.Gauge

	// pending is the admission queue depth (arrived VMs awaiting
	// placement, including those between retries); inFlight counts VMs in
	// a migration blackout.
	pending  *telemetry.Gauge
	inFlight *telemetry.Gauge

	// Control-plane activity, mirroring the preemption, gang, backfill,
	// and descheduler counters.
	preemptions  *telemetry.Gauge
	preemptKills *telemetry.Gauge
	gangs        *telemetry.Gauge
	backfills    *telemetry.Gauge
	deschedMoves *telemetry.Gauge

	// waitHist records arrival-to-first-placement latency per priority
	// class, observed at admission time (not sampled), indexed by
	// Priority.
	waitHist [3]*telemetry.Histogram

	// Per-host load, indexed like Cluster.hosts.
	hostVMs      []*telemetry.Gauge
	hostVCPUs    []*telemetry.Gauge
	hostPressure []*telemetry.Gauge
	hostRemote   []*telemetry.Gauge
	hostFreeMB   []*telemetry.Gauge
}

// attachTelemetry registers the cluster's series in the sampler's registry
// and hooks the refresh. The cluster hook is registered FIRST: it advances
// every host engine to the sample time (syncHosts), and the per-host xen
// hooks registered below then read fresh state.
func (c *Cluster) attachTelemetry(s *telemetry.Sampler) {
	reg := s.Registry()
	t := &clusterTelemetry{
		c: c,
		arrivals: reg.Gauge("cluster_vm_arrivals",
			"VM requests that have entered the cluster."),
		placed: reg.Gauge("cluster_vm_placed",
			"Admissions onto a host, including killed preemption victims admitted again; migrations are not counted."),
		retries: reg.Gauge("cluster_vm_retries",
			"Placement attempts re-queued with backoff."),
		rejected: reg.Gauge("cluster_vm_rejected",
			"VMs rejected after exhausting placement retries."),
		departed: reg.Gauge("cluster_vm_departed",
			"VMs whose lifetime ended and were torn down."),
		migrations: reg.Gauge("cluster_vm_migrations",
			"Inter-host live migrations started by the rebalancer."),
		pending: reg.Gauge("cluster_admission_queue_depth",
			"Arrived VMs awaiting placement (including retry backoff)."),
		inFlight: reg.Gauge("cluster_migrations_in_flight",
			"VMs currently in a migration copy blackout."),
		preemptions: reg.Gauge("cluster_vm_preemptions",
			"Lower-priority VMs evicted to admit higher-priority arrivals."),
		preemptKills: reg.Gauge("cluster_vm_preempt_kills",
			"Preemption victims killed and requeued (no host fit them)."),
		gangs: reg.Gauge("cluster_gangs_admitted",
			"VM groups placed all-or-nothing."),
		backfills: reg.Gauge("cluster_vm_backfills",
			"VMs that jumped the blocked admission queue into a hole."),
		deschedMoves: reg.Gauge("cluster_deschedule_moves",
			"Defragmentation migrations made by the descheduler."),
	}
	waitBounds := []float64{0.5, 1, 2, 5, 10, 20, 40, 80, 160}
	for _, p := range Priorities() {
		t.waitHist[p] = reg.Histogram("cluster_admission_wait_seconds",
			"Arrival-to-first-placement latency by priority class.",
			waitBounds, telemetry.Label{Key: "priority", Value: p.String()})
	}
	c.tel = t
	s.OnSample(t.sample)
	n := len(c.hosts)
	t.hostVMs, t.hostVCPUs = make([]*telemetry.Gauge, 0, n), make([]*telemetry.Gauge, 0, n)
	t.hostPressure, t.hostRemote = make([]*telemetry.Gauge, 0, n), make([]*telemetry.Gauge, 0, n)
	t.hostFreeMB = make([]*telemetry.Gauge, 0, n)
	for _, ho := range c.hosts {
		label := telemetry.Label{Key: "host", Value: ho.Name}
		t.hostVMs = append(t.hostVMs, reg.Gauge("cluster_host_vms",
			"Live VMs on the host.", label))
		t.hostVCPUs = append(t.hostVCPUs, reg.Gauge("cluster_host_guest_vcpus",
			"Guest VCPUs of live domains on the host (overcommit figure).", label))
		t.hostPressure = append(t.hostPressure, reg.Gauge("cluster_host_llc_pressure",
			"Per-socket average LLC pressure of the host's active VCPUs.", label))
		t.hostRemote = append(t.hostRemote, reg.Gauge("cluster_host_remote_ratio",
			"Lifetime remote-access ratio of the host.", label))
		t.hostFreeMB = append(t.hostFreeMB, reg.Gauge("cluster_host_free_mb",
			"Free guest memory on the host in MB.", label))
		xen.AttachTelemetry(ho.H, s, label)
	}
}

// sample refreshes the cluster gauges. Reads only — except for the host
// sync, which advances every host with an event due to the sample time.
// Host engines are independent between mutations and fire the same events
// however their advances are split, so an extra advance leaves the
// simulation outcome unchanged.
func (t *clusterTelemetry) sample() {
	c := t.c
	if !c.sync() {
		return
	}
	t.arrivals.Set(float64(c.stats.Arrivals))
	t.placed.Set(float64(c.stats.Placed))
	t.retries.Set(float64(c.stats.Retries))
	t.rejected.Set(float64(c.stats.Rejected))
	t.departed.Set(float64(c.stats.Departed))
	t.migrations.Set(float64(c.stats.Migrations))
	t.preemptions.Set(float64(c.stats.Preemptions))
	t.preemptKills.Set(float64(c.stats.PreemptKills))
	t.gangs.Set(float64(c.stats.GangsAdmitted))
	t.backfills.Set(float64(c.stats.Backfills))
	t.deschedMoves.Set(float64(c.stats.DeschedMoves))

	pending, inFlight := 0, 0
	for _, vm := range c.vms {
		switch vm.state {
		case statePending:
			pending++
		case stateMigrating:
			inFlight++
		}
	}
	t.pending.Set(float64(pending))
	t.inFlight.Set(float64(inFlight))

	for i, ho := range c.hosts {
		t.hostVMs[i].Set(float64(len(ho.VMs)))
		t.hostVCPUs[i].Set(float64(ho.guestVCPUs()))
		t.hostPressure[i].Set(ho.llcPressure())
		// The lifetime ratio, not intervalRemoteRatio: the latter advances
		// the rebalancer's snapshot and would perturb its decisions.
		t.hostRemote[i].Set(ho.remoteRatio())
		var free float64
		for n := 0; n < ho.Top.NumNodes(); n++ {
			free += float64(ho.H.Alloc.FreeMB(numa.NodeID(n)))
		}
		t.hostFreeMB[i].Set(free)
	}
}
