// Mixed scenario: a heterogeneous consolidation — an LP solver, a quantum
// simulator, a network-flow solver, and a lattice-QCD code share the
// machine with interference. The example shows how the PMU data analyzer
// classifies each VCPU (the paper's LLC-T / LLC-FI / LLC-FR taxonomy), and
// demonstrates the two §VI extensions: dynamic bounds and page migration.
//
//	go run ./examples/mixed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vprobe"
)

func main() {
	fmt.Println("mixed workload: per-VCPU classification and extension ablation")
	fmt.Println()

	configs := []struct {
		label        string
		dynamic, mig bool
	}{
		{"vProbe (paper bounds 3/20)", false, false},
		{"vProbe + dynamic bounds (§VI)", true, false},
		{"vProbe + page migration (§VI)", false, true},
	}
	for _, c := range configs {
		mean, classes, err := run(c.dynamic, c.mig)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s mean exec %6.1fs   classes: %s\n", c.label, mean.Seconds(), classes)
	}
}

func run(dynamicBounds, pageMigration bool) (time.Duration, string, error) {
	burner := vprobe.VMSpec{Name: "burner", MemoryMB: 1024, VCPUs: 8}
	for i := 0; i < 8; i++ {
		burner.Apps = append(burner.Apps, vprobe.AppSpec{Name: "hungry"})
	}
	scenario := vprobe.ScenarioSpec{
		Scheduler:     string(vprobe.SchedulerVProbe),
		Seed:          5,
		DynamicBounds: dynamicBounds,
		PageMigration: pageMigration,
		Horizon:       vprobe.SpecDuration(20 * time.Minute),
		VMs: []vprobe.VMSpec{
			{Name: "mix-vm", MemoryMB: 15 * 1024, VCPUs: 8, Memory: "stripe", FillGuestIdle: true,
				Apps: apps("soplex", "libquantum", "mcf", "milc")},
			{Name: "noise-vm", MemoryMB: 5 * 1024, VCPUs: 8, FillGuestIdle: true,
				Apps: apps("povray", "ep", "lu", "mg")},
			burner,
		},
		Watch: []string{"mix-vm"},
	}
	sim, horizon, err := vprobe.CompileScenario(scenario, vprobe.CompileOptions{})
	if err != nil {
		return 0, "", err
	}
	report, err := sim.RunContext(context.Background(), horizon)
	if err != nil {
		return 0, "", err
	}

	// Read back the analyzer's classification of the mix VM's VCPUs.
	classes := ""
	for _, v := range sim.Hypervisor().Domains[0].VCPUs {
		if v.App == nil || v.App.Endless() {
			continue
		}
		if classes != "" {
			classes += ", "
		}
		classes += fmt.Sprintf("%s=%s", v.App.Name, v.Type)
	}
	return report.MeanExecTime("mix-vm"), classes, nil
}

// apps returns one instance of each named catalog application.
func apps(names ...string) []vprobe.AppSpec {
	out := make([]vprobe.AppSpec, len(names))
	for i, name := range names {
		out[i] = vprobe.AppSpec{Name: name}
	}
	return out
}
