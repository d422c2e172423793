package cluster

import (
	"context"
	"fmt"
	"testing"

	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// The per-arrival placement benchmarks behind the incremental engine's
// acceptance criterion: at 1024 hosts the cached path must beat the
// pre-refactor full rescan by at least 10x. Both benchmarks measure the
// same steady state — a loaded fleet where each arrival changes exactly
// the host it lands on — so the comparison isolates the decision cost,
// not admission bookkeeping.

// benchFleet builds an N-host cluster with every third host loaded, the
// shape a live fleet settles into: most hosts clean, a few dirty per
// decision.
func benchFleet(b *testing.B, hosts int) *Cluster {
	b.Helper()
	c, err := New(Config{Hosts: hosts, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < hosts; i += 3 {
		spec := VMSpec{Name: fmt.Sprintf("seed%d", i), MemoryMB: 2048, VCPUs: 2}
		hv, plan, err := c.place(&spec)
		if err != nil {
			b.Fatal(err)
		}
		vm := &VM{ID: len(c.vms), Spec: spec, life: 300 * sim.Second}
		c.vms = append(c.vms, vm)
		c.placeOn(vm, c.hosts[hv.Index], plan, 1)
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	c.refreshViews()
	return c
}

// benchSpecs rotates the generated mix's three VM shapes, so the score
// cache serves all of its classes like a real run does.
var benchSpecs = []VMSpec{
	{MemoryMB: 1024, VCPUs: 1},
	{MemoryMB: 2048, VCPUs: 2},
	{MemoryMB: 4096, VCPUs: 4},
}

// BenchmarkClusterArrival measures one incremental placement decision:
// refresh the (single) changed view, rescore it, repair the class heaps,
// read the winner. Each iteration then gives the winner a real input
// change — it toggles a one-VCPU phantom VM on the host's VM list, which
// moves GuestVCPUs and VMs the way an admission or a departure does — so
// the next decision pays the refresh and the rescore a real admission
// causes, without consuming capacity.
func BenchmarkClusterArrival(b *testing.B) {
	for _, hosts := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := benchFleet(b, hosts)
			phantoms := make([]*VM, hosts)
			for i := range phantoms {
				phantoms[i] = &VM{Spec: VMSpec{Name: fmt.Sprintf("phantom%d", i), VCPUs: 1}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := benchSpecs[i%len(benchSpecs)]
				hv, _, err := c.place(&spec)
				if err != nil {
					b.Fatal(err)
				}
				ho := c.hosts[hv.Index]
				if n := len(ho.VMs); n > 0 && ho.VMs[n-1] == phantoms[ho.Index] {
					ho.VMs = ho.VMs[:n-1]
				} else {
					ho.VMs = append(ho.VMs, phantoms[ho.Index])
				}
				c.markDirty(ho)
			}
		})
	}
}

// BenchmarkGangArrival measures one gang admission attempt at fleet
// scale: three members of the generated mix's shapes reserve one after
// another, each seeing the earlier members' deductions, and a fourth
// member fits nowhere, so the attempt fails before commit and the fleet
// is back where it started for the next iteration. That is the reserve,
// the part of a gang admission the placement engine computes; the commit
// that follows a successful reserve builds the same domains a single
// placement does.
func BenchmarkGangArrival(b *testing.B) {
	for _, hosts := range []int{1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := benchFleet(b, hosts)
			var vms []*VM
			for i, spec := range append(benchSpecs[:len(benchSpecs):len(benchSpecs)],
				VMSpec{MemoryMB: 1 << 30, VCPUs: 1}) {
				spec.Name = fmt.Sprintf("gang%d", i)
				spec.Group = "g"
				vms = append(vms, &VM{ID: len(c.vms) + i, Spec: spec})
			}
			u := &admitUnit{vms: vms, gang: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.tryAdmitGang(u) {
					b.Fatal("a gang with an unplaceable member was admitted")
				}
			}
			if c.err != nil {
				b.Fatal(c.err)
			}
		})
	}
}

// BenchmarkClusterArrivalFullRescan is the pre-refactor decision: build
// a fresh view of every host and run the generic pipeline over all of
// them. It exists as the speedup denominator for BenchmarkClusterArrival
// and as a record of what O(hosts)-per-arrival costs.
func BenchmarkClusterArrivalFullRescan(b *testing.B) {
	for _, hosts := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			c := benchFleet(b, hosts)
			views := make([]*HostView, len(c.hosts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := benchSpecs[i%len(benchSpecs)]
				for j, ho := range c.hosts {
					views[j] = ho.freshView()
				}
				if _, _, err := c.pipeline.Place(&spec, views); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterChurn measures one whole cluster run on the host-advance
// path, which the arrival benchmarks never reach (their hosts never run):
// fleet-churn's mechanisms and load on 256 hosts, with its time scaled by
// a quarter to a 5 s horizon. Lifetimes and the rebalancer and
// descheduler periods shrink with it, and the arrival rate stays, so a
// host carries about one VM in steady state and three in four VMs depart
// inside the horizon, as in fleet-churn. Each iteration builds a fresh
// cluster outside the timer and runs it to the horizon on one worker.
func BenchmarkClusterChurn(b *testing.B) {
	cfg := Config{
		Hosts:             256,
		Scheduler:         sched.KindVProbe,
		Policy:            "numa",
		Seed:              2 << 16,
		ArrivalsPerSecond: 100,
		MeanLifetime:      2500 * sim.Millisecond,
		Horizon:           5 * sim.Second,
		Workers:           1,
		RebalancePeriod:   2500 * sim.Millisecond,
		Preempt:           true,
		Gang:              true,
		GangFraction:      0.2,
		Backfill:          true,
		DeschedulePeriod:  2500 * sim.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
