package vprobe_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/spec"
)

// runScenarioSpec pushes a scenario through the full wire path — JSON
// encode, decode, CompileScenario — runs it, and returns the report text
// plus the event stream rendered one line per event.
func runScenarioSpec(t *testing.T, s spec.ScenarioV1) (string, []string) {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded spec.ScenarioV1
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	var events []string
	sim, horizon, err := vprobe.CompileScenario(decoded, vprobe.CompileOptions{
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			events = append(events, fmt.Sprintf("%v %s %s", ev.At, ev.Kind, ev.Detail))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.RunContext(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep.String(), events
}

// runScenarioDirect hand-builds the equivalent Config/VMConfig calls.
func runScenarioDirect(t *testing.T, s spec.ScenarioV1) (string, []string) {
	t.Helper()
	n := s.Normalize()
	var events []string
	sim, err := vprobe.NewSimulator(vprobe.Config{
		Scheduler:     vprobe.Scheduler(n.Scheduler),
		Topology:      vprobe.Topology(n.Topology),
		Seed:          n.Seed,
		SamplePeriod:  n.SamplePeriod.Std(),
		DynamicBounds: n.DynamicBounds,
		PageMigration: n.PageMigration,
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			events = append(events, fmt.Sprintf("%v %s %s", ev.At, ev.Kind, ev.Detail))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range n.VMs {
		mp := vprobe.MemFill
		if v.Memory == "stripe" {
			mp = vprobe.MemStripe
		}
		vm, err := sim.AddVM(vprobe.VMConfig{
			Name: v.Name, MemoryMB: v.MemoryMB, VCPUs: v.VCPUs,
			Memory: mp, FillGuestIdle: v.FillGuestIdle,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range v.Apps {
			switch {
			case app.Name != "":
				err = vm.RunApp(app.Name)
			case app.Server == "memcached":
				err = vm.RunMemcached(app.Load)
			case app.Server == "redis":
				err = vm.RunRedis(app.Load)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := sim.RunContext(context.Background(), n.Horizon.Std())
	if err != nil {
		t.Fatal(err)
	}
	return rep.String(), events
}

// compareRuns fails unless both paths produced byte-identical output.
func compareRuns(t *testing.T, s spec.ScenarioV1) {
	t.Helper()
	specRep, specEvents := runScenarioSpec(t, s)
	directRep, directEvents := runScenarioDirect(t, s)
	if specRep != directRep {
		t.Errorf("report diverges:\n--- spec ---\n%s--- direct ---\n%s", specRep, directRep)
	}
	if len(specEvents) != len(directEvents) {
		t.Fatalf("event counts diverge: %d vs %d", len(specEvents), len(directEvents))
	}
	for i := range specEvents {
		if specEvents[i] != directEvents[i] {
			t.Fatalf("event %d diverges:\n  spec:   %s\n  direct: %s",
				i, specEvents[i], directEvents[i])
		}
	}
}

// TestScenarioRoundTripGrid pins byte-identical spec-vs-direct runs for
// every preset topology crossed with every scheduler.
func TestScenarioRoundTripGrid(t *testing.T) {
	for _, topo := range spec.Topologies() {
		for _, sch := range spec.Schedulers() {
			t.Run(topo+"/"+sch, func(t *testing.T) {
				compareRuns(t, spec.ScenarioV1{
					Topology:  topo,
					Scheduler: sch,
					Seed:      11,
					Horizon:   spec.Duration(400 * time.Millisecond),
					VMs: []spec.VMV1{
						{Name: "vm1", MemoryMB: 4096, VCPUs: 2, Memory: "stripe",
							Apps: []spec.AppV1{{Name: "soplex"}, {Name: "hungry"}}},
						{Name: "vm2", MemoryMB: 2048, VCPUs: 1, FillGuestIdle: true,
							Apps: []spec.AppV1{{Name: "libquantum"}}},
					},
				})
			})
		}
	}
}

// TestScenarioRoundTripWorkloads covers every catalog workload plus both
// typed server forms at a fixed topology and scheduler.
func TestScenarioRoundTripWorkloads(t *testing.T) {
	for _, app := range spec.Apps() {
		t.Run(app, func(t *testing.T) {
			compareRuns(t, spec.ScenarioV1{
				Scheduler: "vprobe",
				Seed:      5,
				Horizon:   spec.Duration(300 * time.Millisecond),
				VMs: []spec.VMV1{{Name: "vm", MemoryMB: 4096, VCPUs: 2,
					Apps: []spec.AppV1{{Name: app}}}},
			})
		})
	}
	for _, srv := range []spec.AppV1{{Server: "memcached", Load: 64}, {Server: "redis", Load: 4000}} {
		t.Run(srv.Server, func(t *testing.T) {
			compareRuns(t, spec.ScenarioV1{
				Seed:    5,
				Horizon: spec.Duration(300 * time.Millisecond),
				VMs: []spec.VMV1{{Name: "srv", MemoryMB: 8192, VCPUs: 2,
					FillGuestIdle: true, Apps: []spec.AppV1{srv}}}})
		})
	}
}

// TestClusterRoundTripPolicies runs each placement policy's spec through
// the JSON round trip at worker counts 1, 4 and 8; every run must match
// the golden report, event stream and spans.
func TestClusterRoundTripPolicies(t *testing.T) {
	for _, policy := range spec.Policies() {
		t.Run(policy, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				s := policyCluster(policy)
				s.Workers = workers
				checkClusterGolden(t, "policy-"+policy, s)
			}
		})
	}
}

// TestClusterRoundTripMixes covers the remaining cluster axis: each
// workload mix, round-tripped at worker counts 1, 4 and 8, matches its
// golden.
func TestClusterRoundTripMixes(t *testing.T) {
	for _, mix := range spec.Mixes() {
		t.Run(mix, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				s := mixSpec(mix)
				s.Workers = workers
				checkClusterGolden(t, "mix-"+mix, s)
			}
		})
	}
}

// TestClusterRoundTripControlPlane pins the control-plane fields through
// the spec path: a spec with every mechanism on matches its golden at
// worker counts 1, 4 and 8, and the report's control-plane fields come
// through.
func TestClusterRoundTripControlPlane(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		s := controlPlaneCluster()
		s.Workers = workers
		rep := checkClusterGolden(t, "controlplane", s).rep
		if len(rep.PerPriority) != 3 {
			t.Fatalf("PerPriority has %d classes, want 3", len(rep.PerPriority))
		}
		if rep.Preemptions == 0 || rep.GangsAdmitted == 0 || rep.Backfills == 0 {
			t.Errorf("control-plane counters missing from the report: %+v", rep)
		}
	}
}

// TestCompileValidationSentinels asserts compile failures surface the
// public sentinels for errors.Is.
func TestCompileValidationSentinels(t *testing.T) {
	vm := spec.VMV1{Name: "vm", MemoryMB: 1024, VCPUs: 1}
	if _, _, err := vprobe.CompileScenario(spec.ScenarioV1{Version: "v2",
		VMs: []spec.VMV1{vm}}, vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrSpecVersion) {
		t.Errorf("version error = %v, want ErrSpecVersion", err)
	}
	if _, _, err := vprobe.CompileScenario(spec.ScenarioV1{Topology: "toaster",
		VMs: []spec.VMV1{vm}}, vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrInvalidSpec) {
		t.Errorf("topology error = %v, want ErrInvalidSpec", err)
	}
	if _, err := vprobe.RunCluster(context.Background(), spec.ClusterV1{Policy: "chaos"},
		vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrInvalidSpec) {
		t.Errorf("policy error = %v, want ErrInvalidSpec", err)
	}
	if !strings.Contains(fmt.Sprint(vprobe.ErrInvalidSpec), "spec:") {
		t.Error("ErrInvalidSpec should render with its spec: prefix")
	}
}

// TestSimulatorSingleUse is the ErrAlreadyRun regression test: a second
// Run on the same Simulator — completed or cancelled — must fail with the
// sentinel instead of silently continuing from consumed state.
func TestSimulatorSingleUse(t *testing.T) {
	build := func() *vprobe.Simulator {
		t.Helper()
		sim, err := vprobe.NewSimulator(vprobe.Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.AddVM(vprobe.VMConfig{Name: "vm", MemoryMB: 1024, VCPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
		return sim
	}

	sim := build()
	if _, err := sim.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(50 * time.Millisecond); !errors.Is(err, vprobe.ErrAlreadyRun) {
		t.Fatalf("second Run = %v, want ErrAlreadyRun", err)
	}

	// A cancelled run also consumes the value.
	sim = build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if _, err := sim.Run(50 * time.Millisecond); !errors.Is(err, vprobe.ErrAlreadyRun) {
		t.Fatalf("Run after cancelled run = %v, want ErrAlreadyRun", err)
	}

	// A pre-start validation failure does not consume the value.
	sim = build()
	if _, err := sim.Run(-time.Second); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := sim.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run after rejected horizon = %v, want success", err)
	}
}
