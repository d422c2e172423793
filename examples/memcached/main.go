// Memcached scenario: a consolidated host serves a memcached-like
// key-value cache from two VMs while a third VM burns spare CPU. The
// example sweeps client concurrency and reports how long each scheduler
// takes to serve a fixed request batch — the paper's Fig. 6 experiment in
// miniature.
//
//	go run ./examples/memcached
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vprobe"
)

const requestsPerWorker = 60000

func main() {
	fmt.Println("memcached scenario: request batch completion time (seconds)")
	fmt.Printf("%-12s", "concurrency")
	for _, s := range []vprobe.Scheduler{vprobe.SchedulerCredit, vprobe.SchedulerVProbe, vprobe.SchedulerLB} {
		fmt.Printf("%10s", s)
	}
	fmt.Println()

	for _, concurrency := range []int{16, 64, 112} {
		fmt.Printf("%-12d", concurrency)
		for _, scheduler := range []vprobe.Scheduler{vprobe.SchedulerCredit, vprobe.SchedulerVProbe, vprobe.SchedulerLB} {
			report, err := run(scheduler, concurrency)
			if err != nil {
				log.Fatal(err)
			}
			var last time.Duration
			for _, a := range report.VMApps("cache-a") {
				if a.ExecTime > last {
					last = a.ExecTime
				}
			}
			fmt.Printf("%10.1f", last.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("\nlower is better; vProbe's edge grows with concurrency as the")
	fmt.Println("working set outgrows the shared LLC (paper Fig. 6).")
}

func run(scheduler vprobe.Scheduler, concurrency int) (*vprobe.Report, error) {
	// Worker threads with a finite request target; the server profile's
	// working set scales with client concurrency.
	workers := make([]vprobe.AppSpec, 8)
	for i := range workers {
		workers[i] = vprobe.AppSpec{Server: "memcached", Load: concurrency, Requests: requestsPerWorker}
	}
	server := func(name string, memMB int64) vprobe.VMSpec {
		return vprobe.VMSpec{Name: name, MemoryMB: memMB, VCPUs: 8,
			Memory: "stripe", FillGuestIdle: true, Apps: workers}
	}
	burner := vprobe.VMSpec{Name: "burner", MemoryMB: 1024, VCPUs: 8}
	for i := 0; i < 8; i++ {
		burner.Apps = append(burner.Apps, vprobe.AppSpec{Name: "hungry"})
	}
	scenario := vprobe.ScenarioSpec{
		Scheduler: string(scheduler),
		Seed:      11,
		Horizon:   vprobe.SpecDuration(30 * time.Minute),
		VMs:       []vprobe.VMSpec{server("cache-a", 15*1024), server("cache-b", 5*1024), burner},
		Watch:     []string{"cache-a"},
	}
	sim, horizon, err := vprobe.CompileScenario(scenario, vprobe.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return sim.RunContext(context.Background(), horizon)
}
