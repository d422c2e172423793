// Redis scenario: four redis-server instances answer a GET-heavy load from
// four benchmark drivers in a second VM (the paper's Fig. 7 setup). The
// example measures sustained throughput over a fixed window under each
// scheduler.
//
//	go run ./examples/redis
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vprobe"
)

func main() {
	const connections = 4000
	fmt.Printf("redis scenario: throughput at %d parallel connections\n\n", connections)

	var baseline float64
	for _, scheduler := range vprobe.Schedulers() {
		report, err := run(scheduler, connections)
		if err != nil {
			log.Fatal(err)
		}
		tput := report.TotalRequests() / report.End.Seconds()
		marker := ""
		if scheduler == vprobe.SchedulerCredit {
			baseline = tput
		} else if baseline > 0 {
			marker = fmt.Sprintf("  (%+.1f%% vs Credit)", 100*(tput/baseline-1))
		}
		fmt.Printf("%-8s %9.0f req/s%s\n", scheduler, tput, marker)
	}
}

func run(scheduler vprobe.Scheduler, connections int) (*vprobe.Report, error) {
	servers := make([]vprobe.AppSpec, 4)
	for i := range servers {
		servers[i] = vprobe.AppSpec{Server: "redis", Load: connections}
	}
	scenario := vprobe.ScenarioSpec{
		Scheduler: string(scheduler),
		Seed:      3,
		Horizon:   vprobe.SpecDuration(30 * time.Second),
		VMs: []vprobe.VMSpec{
			{Name: "redis-vm", MemoryMB: 15 * 1024, VCPUs: 8,
				Memory: "stripe", FillGuestIdle: true, Apps: servers},
			// The load generators are CPU-bound driver processes.
			{Name: "bench-vm", MemoryMB: 5 * 1024, VCPUs: 8,
				FillGuestIdle: true, Apps: apps("hungry", 4)},
			{Name: "burner", MemoryMB: 1024, VCPUs: 8, Apps: apps("hungry", 8)},
		},
	}
	sim, horizon, err := vprobe.CompileScenario(scenario, vprobe.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return sim.RunContext(context.Background(), horizon)
}

// apps returns n instances of the named catalog application.
func apps(name string, n int) []vprobe.AppSpec {
	out := make([]vprobe.AppSpec, n)
	for i := range out {
		out[i] = vprobe.AppSpec{Name: name}
	}
	return out
}
