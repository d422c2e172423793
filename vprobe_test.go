package vprobe_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vprobe"
)

// apps returns n instances of the named catalog application.
func apps(name string, n int) []vprobe.AppSpec {
	out := make([]vprobe.AppSpec, n)
	for i := range out {
		out[i] = vprobe.AppSpec{Name: name}
	}
	return out
}

// compile compiles s with opts, failing the test on error.
func compile(t testing.TB, s vprobe.ScenarioSpec, opts vprobe.CompileOptions) (*vprobe.Simulator, time.Duration) {
	t.Helper()
	sim, horizon, err := vprobe.CompileScenario(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim, horizon
}

// run compiles s with opts and runs it to its horizon.
func run(t testing.TB, s vprobe.ScenarioSpec, opts vprobe.CompileOptions) *vprobe.Report {
	t.Helper()
	sim, horizon := compile(t, s, opts)
	report, err := sim.RunContext(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// oneVM is the smallest valid scenario: one single-VCPU VM running apps.
func oneVM(apps ...vprobe.AppSpec) vprobe.ScenarioSpec {
	return vprobe.ScenarioSpec{VMs: []vprobe.VMSpec{{Name: "vm", MemoryMB: 1024, VCPUs: 1, Apps: apps}}}
}

// standard is the paper's measured setup at 15% scale: four soplex
// instances in a striped VM1 beside the VM3 burner, run until VM1's apps
// finish.
func standard(scheduler vprobe.Scheduler, seed uint64) vprobe.ScenarioSpec {
	return vprobe.ScenarioSpec{
		Scheduler: string(scheduler),
		Seed:      seed,
		Scale:     0.15,
		Horizon:   vprobe.SpecDuration(10 * time.Minute),
		VMs: []vprobe.VMSpec{
			{Name: "vm1", MemoryMB: 15 * 1024, VCPUs: 8, Memory: "stripe",
				FillGuestIdle: true, Apps: apps("soplex", 4)},
			{Name: "vm3", MemoryMB: 1024, VCPUs: 8, Apps: apps("hungry", 8)},
		},
		Watch: []string{"vm1"},
	}
}

func TestAPIEndToEnd(t *testing.T) {
	report := run(t, standard(vprobe.SchedulerVProbe, 2), vprobe.CompileOptions{})
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
	sim, horizon := compile(t, oneVM(), vprobe.CompileOptions{})
	if sim.Hypervisor().Top.NumNodes() != 2 {
		t.Fatal("default topology is not the Table I machine")
	}
	if horizon != 30*time.Second {
		t.Fatalf("default horizon = %v, want 30s", horizon)
	}
}

func TestAPIErrors(t *testing.T) {
	for name, s := range map[string]vprobe.ScenarioSpec{
		"unknown topology":  {Topology: "laptop", VMs: oneVM().VMs},
		"unknown scheduler": {Scheduler: "fifo", VMs: oneVM().VMs},
		"unknown app":       oneVM(vprobe.AppSpec{Name: "doom"}),
		"apps beyond vcpus": oneVM(apps("povray", 2)...),
		"negative horizon":  {Horizon: vprobe.SpecDuration(-time.Second), VMs: oneVM().VMs},
	} {
		if _, _, err := vprobe.CompileScenario(s, vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
	sim, _ := compile(t, oneVM(vprobe.AppSpec{Name: "povray"}), vprobe.CompileOptions{})
	if _, err := sim.RunContext(context.Background(), -time.Second); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := sim.RunContext(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestAPISchedulersList(t *testing.T) {
	ss := vprobe.Schedulers()
	if len(ss) != 5 || ss[0] != vprobe.SchedulerCredit || ss[1] != vprobe.SchedulerVProbe {
		t.Fatalf("Schedulers() = %v", ss)
	}
}

func TestAPIDeterminism(t *testing.T) {
	end := func() time.Duration {
		return run(t, standard(vprobe.SchedulerVProbe, 9), vprobe.CompileOptions{}).End
	}
	if a, b := end(), end(); a != b {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
}

// TestAPITraceHook asserts the Events sink, the API's trace hook, fires on
// a short run.
func TestAPITraceHook(t *testing.T) {
	lines := 0
	s := oneVM(vprobe.AppSpec{Name: "hungry"})
	s.Horizon = vprobe.SpecDuration(100 * time.Millisecond)
	run(t, s, vprobe.CompileOptions{Events: vprobe.EventFunc(func(vprobe.Event) { lines++ })})
	if lines == 0 {
		t.Fatal("trace hook never fired")
	}
}

func TestAPISamplePeriodOverride(t *testing.T) {
	fast := standard(vprobe.SchedulerVProbe, 2)
	fast.SamplePeriod = vprobe.SpecDuration(100 * time.Millisecond)
	report := run(t, fast, vprobe.CompileOptions{})
	// 10x the sampling rate: overhead fraction must exceed the default
	// period's.
	reportDefault := run(t, standard(vprobe.SchedulerVProbe, 2), vprobe.CompileOptions{})
	if report.OverheadFraction <= reportDefault.OverheadFraction {
		t.Fatalf("100ms period overhead %v not above 1s period %v",
			report.OverheadFraction, reportDefault.OverheadFraction)
	}
}

func TestAPIUMATopologySafe(t *testing.T) {
	// NUMA-aware policies must run without incident on a single node.
	report := run(t, vprobe.ScenarioSpec{
		Scheduler: string(vprobe.SchedulerVProbe),
		Topology:  "uma",
		Scale:     0.05,
		Horizon:   vprobe.SpecDuration(5 * time.Minute),
		VMs: []vprobe.VMSpec{{Name: "v", MemoryMB: 4096, VCPUs: 4, FillGuestIdle: true,
			Apps: apps("libquantum", 2)}},
	}, vprobe.CompileOptions{})
	for _, a := range report.VMApps("v") {
		if a.RemoteRatio != 0 {
			t.Fatalf("UMA produced remote accesses: %+v", a)
		}
	}
}

func TestAPIPageMigrationReducesRemote(t *testing.T) {
	remoteRatio := func(migrate bool) float64 {
		s := standard(vprobe.SchedulerCredit, 4)
		s.PageMigration = migrate
		var remote, total float64
		for _, a := range run(t, s, vprobe.CompileOptions{}).VMApps("vm1") {
			remote += a.RemoteAccesses
			total += a.TotalAccesses
		}
		return remote / total
	}
	plain := remoteRatio(false)
	migrated := remoteRatio(true)
	if migrated >= plain {
		t.Fatalf("page migration did not reduce remote ratio: %.3f vs %.3f", migrated, plain)
	}
}
