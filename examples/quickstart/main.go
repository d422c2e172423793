// Quickstart: run the same memory-intensive workload under the stock Xen
// Credit scheduler and under vProbe on the paper's two-socket Xeon E5620
// machine, and compare completion times and remote-access ratios.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vprobe"
)

func main() {
	fmt.Println("vProbe quickstart: 4x soplex + interference, Credit vs vProbe")
	fmt.Println()

	var baseline time.Duration
	for _, scheduler := range []vprobe.Scheduler{vprobe.SchedulerCredit, vprobe.SchedulerVProbe} {
		report, err := run(scheduler)
		if err != nil {
			log.Fatal(err)
		}
		mean := report.MeanExecTime("workload-vm")
		fmt.Printf("%s\n", report)
		if scheduler == vprobe.SchedulerCredit {
			baseline = mean
		} else if baseline > 0 {
			improvement := 100 * (1 - float64(mean)/float64(baseline))
			fmt.Printf("vProbe improvement over Credit: %.1f%%\n", improvement)
		}
		fmt.Println()
	}
}

func run(scheduler vprobe.Scheduler) (*vprobe.Report, error) {
	scenario := vprobe.ScenarioSpec{
		Scheduler: string(scheduler),
		Seed:      7,
		Horizon:   vprobe.SpecDuration(20 * time.Minute),
		VMs: []vprobe.VMSpec{
			// The measured VM: four LP-solver instances, memory striped
			// across both NUMA nodes (the paper's VM1 setup).
			{Name: "workload-vm", MemoryMB: 15 * 1024, VCPUs: 8,
				Memory: "stripe", FillGuestIdle: true, Apps: apps("soplex", 4)},
			// An interfering VM running the same workload.
			{Name: "interference-vm", MemoryMB: 5 * 1024, VCPUs: 8,
				FillGuestIdle: true, Apps: apps("soplex", 4)},
			// CPU burners soaking up the slack (the paper's VM3).
			{Name: "burner-vm", MemoryMB: 1024, VCPUs: 8, Apps: apps("hungry", 8)},
		},
		// The run ends once the measured VM's apps complete.
		Watch: []string{"workload-vm"},
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
