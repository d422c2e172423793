package vprobe_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/golden"
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

// roundTripGolden holds one SHA-256 per round-trip case, keyed by test
// name: the digest of the case's report followed by its event lines.
const roundTripGolden = "testdata/scenario/roundtrip.golden"

// roundTripDigest runs s through the wire path and records the digest of
// its report and event lines under the (sub)test's name.
func roundTripDigest(t *testing.T, s spec.ScenarioV1, digests map[string]string) {
	t.Helper()
	report, events := runScenarioSpec(t, s)
	h := sha256.New()
	io.WriteString(h, report)
	for _, ev := range events {
		io.WriteString(h, ev+"\n")
	}
	digests[t.Name()] = hex.EncodeToString(h.Sum(nil))
}

// checkRoundTrips checks roundTripGolden once, rebuilt from its committed
// lines with the digests this run took in their place, so the cases of
// TestScenarioRoundTripGrid and TestScenarioRoundTripWorkloads (run
// separately, or filtered) share the file.
func checkRoundTrips(t *testing.T, digests map[string]string) {
	t.Helper()
	if t.Failed() {
		return
	}
	data, _ := os.ReadFile(roundTripGolden) // a missing file has no lines
	all := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			all[name] = sum
		}
	}
	for name, sum := range digests {
		all[name] = sum
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, name := range names {
		fmt.Fprintf(&out, "%s %s\n", name, all[name])
	}
	golden.Check(t, roundTripGolden, []byte(out.String()))
}

// TestScenarioRoundTripGrid pins the output of every preset topology
// crossed with every scheduler.
func TestScenarioRoundTripGrid(t *testing.T) {
	digests := map[string]string{}
	for _, topo := range spec.Topologies() {
		for _, sch := range spec.Schedulers() {
			t.Run(topo+"/"+sch, func(t *testing.T) {
				roundTripDigest(t, spec.ScenarioV1{
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
				}, digests)
			})
		}
	}
	checkRoundTrips(t, digests)
}

// TestScenarioRoundTripWorkloads covers every catalog workload plus both
// typed server forms at a fixed topology and scheduler.
func TestScenarioRoundTripWorkloads(t *testing.T) {
	digests := map[string]string{}
	for _, app := range spec.Apps() {
		t.Run(app, func(t *testing.T) {
			roundTripDigest(t, spec.ScenarioV1{
				Scheduler: "vprobe",
				Seed:      5,
				Horizon:   spec.Duration(300 * time.Millisecond),
				VMs: []spec.VMV1{{Name: "vm", MemoryMB: 4096, VCPUs: 2,
					Apps: []spec.AppV1{{Name: app}}}},
			}, digests)
		})
	}
	for _, srv := range []spec.AppV1{{Server: "memcached", Load: 64}, {Server: "redis", Load: 4000}} {
		t.Run(srv.Server, func(t *testing.T) {
			roundTripDigest(t, spec.ScenarioV1{
				Seed:    5,
				Horizon: spec.Duration(300 * time.Millisecond),
				VMs: []spec.VMV1{{Name: "srv", MemoryMB: 8192, VCPUs: 2,
					FillGuestIdle: true, Apps: []spec.AppV1{srv}}}}, digests)
		})
	}
	checkRoundTrips(t, digests)
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
// RunContext on the same Simulator — completed or cancelled — must fail
// with the sentinel instead of silently continuing from consumed state.
func TestSimulatorSingleUse(t *testing.T) {
	build := func() *vprobe.Simulator {
		t.Helper()
		s := oneVM(vprobe.AppSpec{Name: "hungry"})
		s.Seed = 2
		sim, _ := compile(t, s, vprobe.CompileOptions{})
		return sim
	}
	ctx := context.Background()

	sim := build()
	if _, err := sim.RunContext(ctx, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(ctx, 50*time.Millisecond); !errors.Is(err, vprobe.ErrAlreadyRun) {
		t.Fatalf("second run = %v, want ErrAlreadyRun", err)
	}

	// A cancelled run also consumes the value.
	sim = build()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sim.RunContext(cancelled, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if _, err := sim.RunContext(ctx, 50*time.Millisecond); !errors.Is(err, vprobe.ErrAlreadyRun) {
		t.Fatalf("run after cancelled run = %v, want ErrAlreadyRun", err)
	}

	// A pre-start validation failure does not consume the value.
	sim = build()
	if _, err := sim.RunContext(ctx, -time.Second); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := sim.RunContext(ctx, 50*time.Millisecond); err != nil {
		t.Fatalf("run after rejected horizon = %v, want success", err)
	}
}
