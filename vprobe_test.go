package vprobe_test

import (
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/workload"
)

func buildStandard(t *testing.T, cfg vprobe.Config) (*vprobe.Simulator, *vprobe.VM) {
	t.Helper()
	sim, err := vprobe.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm1, err := sim.AddVM(vprobe.VMConfig{
		Name: "vm1", MemoryMB: 15 * 1024, VCPUs: 8,
		Memory: vprobe.MemStripe, FillGuestIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := vm1.RunProfile(workload.Soplex().Scale(0.15)); err != nil {
			t.Fatal(err)
		}
	}
	vm3, err := sim.AddVM(vprobe.VMConfig{Name: "vm3", MemoryMB: 1024, VCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := vm3.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
	}
	return sim, vm1
}

func TestAPIEndToEnd(t *testing.T) {
	sim, vm1 := buildStandard(t, vprobe.Config{Scheduler: vprobe.SchedulerVProbe, Seed: 2})
	report, err := sim.RunWatching(10*time.Minute, vm1)
	if err != nil {
		t.Fatal(err)
	}
	apps := report.VMApps("vm1")
	if len(apps) != 4 {
		t.Fatalf("vm1 apps = %d, want 4 (background load must be filtered)", len(apps))
	}
	for _, a := range apps {
		if !a.Finished {
			t.Fatalf("app %s unfinished at %v", a.App, report.End)
		}
		if a.TotalAccesses <= 0 || a.RemoteRatio < 0 || a.RemoteRatio > 1 {
			t.Fatalf("bad counters: %+v", a)
		}
	}
	if !report.AllFinished() {
		t.Fatal("AllFinished = false with all apps done")
	}
	if report.MeanExecTime("vm1") <= 0 {
		t.Fatal("MeanExecTime = 0")
	}
	if report.CPUBusy <= 0 {
		t.Fatal("no busy time recorded")
	}
	if report.OverheadFraction <= 0 {
		t.Fatal("vProbe overhead not reported")
	}
	s := report.String()
	for _, want := range []string{"vprobe", "vm1", "soplex"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAPIDefaults(t *testing.T) {
	sim, err := vprobe.NewSimulator(vprobe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Hypervisor().Top.NumNodes() != 2 {
		t.Fatal("default topology is not the Table I machine")
	}
}

func TestAPIErrors(t *testing.T) {
	if _, err := vprobe.NewSimulator(vprobe.Config{Topology: "laptop"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := vprobe.NewSimulator(vprobe.Config{Scheduler: "fifo"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	sim, _ := vprobe.NewSimulator(vprobe.Config{})
	vm, err := sim.AddVM(vprobe.VMConfig{Name: "v", MemoryMB: 1024, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.RunApp("doom"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := vm.RunApp("povray"); err != nil {
		t.Fatal(err)
	}
	if err := vm.RunApp("povray"); err == nil {
		t.Fatal("attach beyond VCPU count accepted")
	}
	if _, err := sim.Run(-time.Second); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddVM(vprobe.VMConfig{Name: "late", MemoryMB: 64, VCPUs: 1}); err == nil {
		t.Fatal("AddVM after Run accepted")
	}
}

func TestAPISchedulersList(t *testing.T) {
	ss := vprobe.Schedulers()
	if len(ss) != 5 || ss[0] != vprobe.SchedulerCredit || ss[1] != vprobe.SchedulerVProbe {
		t.Fatalf("Schedulers() = %v", ss)
	}
}

func TestAPIDeterminism(t *testing.T) {
	run := func() time.Duration {
		sim, vm1 := buildStandard(t, vprobe.Config{Scheduler: vprobe.SchedulerVProbe, Seed: 9})
		report, err := sim.RunWatching(10*time.Minute, vm1)
		if err != nil {
			t.Fatal(err)
		}
		return report.End
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
}

// TestAPITraceHook asserts the Events sink, the API's trace hook, fires on
// a short run.
func TestAPITraceHook(t *testing.T) {
	lines := 0
	sim, err := vprobe.NewSimulator(vprobe.Config{
		Events: vprobe.EventFunc(func(vprobe.Event) { lines++ }),
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := sim.AddVM(vprobe.VMConfig{Name: "v", MemoryMB: 1024, VCPUs: 1})
	vm.RunApp("hungry")
	if _, err := sim.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace hook never fired")
	}
}

func TestAPISamplePeriodOverride(t *testing.T) {
	sim, vm1 := buildStandard(t, vprobe.Config{
		Scheduler:    vprobe.SchedulerVProbe,
		SamplePeriod: 100 * time.Millisecond,
		Seed:         2,
	})
	report, err := sim.RunWatching(10*time.Minute, vm1)
	if err != nil {
		t.Fatal(err)
	}
	// 10x the sampling rate: overhead fraction must exceed the default
	// period's.
	simDefault, vmD := buildStandard(t, vprobe.Config{Scheduler: vprobe.SchedulerVProbe, Seed: 2})
	reportDefault, err := simDefault.RunWatching(10*time.Minute, vmD)
	if err != nil {
		t.Fatal(err)
	}
	if report.OverheadFraction <= reportDefault.OverheadFraction {
		t.Fatalf("100ms period overhead %v not above 1s period %v",
			report.OverheadFraction, reportDefault.OverheadFraction)
	}
}

func TestAPIUMATopologySafe(t *testing.T) {
	// NUMA-aware policies must run without incident on a single node.
	sim, err := vprobe.NewSimulator(vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Topology:  vprobe.TopologyUMA,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.AddVM(vprobe.VMConfig{Name: "v", MemoryMB: 4096, VCPUs: 4, FillGuestIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := vm.RunProfile(workload.Libquantum().Scale(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	report, err := sim.Run(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range report.VMApps("v") {
		if a.RemoteRatio != 0 {
			t.Fatalf("UMA produced remote accesses: %+v", a)
		}
	}
}

func TestAPIPageMigrationReducesRemote(t *testing.T) {
	run := func(migrate bool) float64 {
		sim, vm1 := buildStandard(t, vprobe.Config{
			Scheduler:     vprobe.SchedulerCredit,
			Seed:          4,
			PageMigration: migrate,
		})
		report, err := sim.RunWatching(10*time.Minute, vm1)
		if err != nil {
			t.Fatal(err)
		}
		var remote, total float64
		for _, a := range report.VMApps("vm1") {
			remote += a.RemoteAccesses
			total += a.TotalAccesses
		}
		return remote / total
	}
	plain := run(false)
	migrated := run(true)
	if migrated >= plain {
		t.Fatalf("page migration did not reduce remote ratio: %.3f vs %.3f", migrated, plain)
	}
}
