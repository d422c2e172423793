package vprobe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// clusterGoldenSpecs names every cluster spec whose public-path output is
// pinned under testdata/cluster: one per placement policy, one per
// workload mix, the control plane with every mechanism armed, and one per
// non-Poisson arrival process (flash also disables the rebalancer).
func clusterGoldenSpecs() map[string]spec.ClusterV1 {
	specs := map[string]spec.ClusterV1{
		"controlplane": controlPlaneCluster(),
		"diurnal": {Hosts: 2, Seed: 5, ArrivalsPerSecond: 0.6,
			Horizon: spec.Duration(60 * time.Second), ArrivalProcess: "diurnal"},
		"flash": {Hosts: 2, Seed: 5, Horizon: spec.Duration(60 * time.Second),
			RebalancePeriod: spec.Duration(-5 * time.Second),
			ArrivalProcess:  "flash", FlashFactor: 6},
		"replay": replaySpec(),
	}
	for _, p := range spec.Policies() {
		specs["policy-"+p] = policyCluster(p)
	}
	for _, m := range spec.Mixes() {
		specs["mix-"+m] = mixSpec(m)
	}
	return specs
}

// policyCluster is TestClusterRoundTripPolicies' spec for one policy.
func policyCluster(policy string) spec.ClusterV1 {
	return spec.ClusterV1{Hosts: 2, Policy: policy, Seed: 9,
		Horizon: spec.Duration(45 * time.Second)}
}

// mixSpec is TestClusterRoundTripMixes' spec for one workload mix.
func mixSpec(mix string) spec.ClusterV1 {
	return spec.ClusterV1{Hosts: 2, Mix: mix, Seed: 3,
		Horizon: spec.Duration(30 * time.Second)}
}

// controlPlaneCluster arms every control-plane mechanism on an overloaded
// two-host cluster.
func controlPlaneCluster() spec.ClusterV1 {
	return spec.ClusterV1{
		Hosts:             2,
		Seed:              5,
		ArrivalsPerSecond: 0.8,
		MeanLifetime:      spec.Duration(150 * time.Second),
		Horizon:           spec.Duration(90 * time.Second),
		Preempt:           true,
		Gang:              true,
		GangFraction:      0.2,
		Backfill:          true,
		DeschedulePeriod:  spec.Duration(15 * time.Second),
	}
}

// replaySpec replays a hand-written arrival trace: every priority class,
// a three-VM group arriving together, and catalog and server profiles,
// with preemption armed so the classes matter.
func replaySpec() spec.ClusterV1 {
	at := func(s float64) spec.Duration { return spec.Duration(s * float64(time.Second)) }
	return spec.ClusterV1{
		Hosts:          2,
		Seed:           7,
		Horizon:        spec.Duration(40 * time.Second),
		Preempt:        true,
		ArrivalProcess: "trace",
		ArrivalTrace: []spec.ArrivalV1{
			{At: at(0.5), MemoryMB: 8192, VCPUs: 4, Lifetime: at(30), Profiles: []string{"mcf", "lu", "soplex"}},
			{At: at(2), MemoryMB: 4096, VCPUs: 2, Priority: 1, Lifetime: at(20), Profiles: []string{"memcached:32"}},
			{At: at(3), MemoryMB: 2048, VCPUs: 1, Group: "g1", Lifetime: at(15), Profiles: []string{"libquantum"}},
			{At: at(3), MemoryMB: 2048, VCPUs: 1, Group: "g1", Lifetime: at(15), Profiles: []string{"libquantum"}},
			{At: at(3), MemoryMB: 2048, VCPUs: 1, Group: "g1", Lifetime: at(15)},
			{At: at(6), MemoryMB: 12288, VCPUs: 6, Priority: 2, Lifetime: at(25), Profiles: []string{"redis:2000", "hungry"}},
			{At: at(9), MemoryMB: 16384, VCPUs: 8, Lifetime: at(10), Profiles: []string{"milc", "milc", "milc", "milc"}},
			{At: at(12), MemoryMB: 6144, VCPUs: 3, Priority: 2, Lifetime: at(20), Profiles: []string{"soplex"}},
			{At: at(20), MemoryMB: 1024, VCPUs: 1, Priority: 1, Lifetime: at(5), Profiles: []string{"mcf"}},
		},
	}
}

// clusterArtifacts is one public cluster run's output: the report, its
// text, the event stream as Event.AppendJSON lines, and the span JSONL.
type clusterArtifacts struct {
	rep                   *vprobe.ClusterReport
	report, events, spans []byte
}

// runClusterSpec pushes a spec through the full wire path — JSON encode,
// decode, RunCluster — with events and spans attached.
func runClusterSpec(t *testing.T, s spec.ClusterV1) clusterArtifacts {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded spec.ClusterV1
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	var events []byte
	tracing := vprobe.NewTracing(vprobe.TracingOptions{})
	rep, err := vprobe.RunCluster(context.Background(), decoded, vprobe.CompileOptions{
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			events = append(ev.AppendJSON(events), '\n')
		}),
		Spans: tracing,
	})
	if err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	if err := tracing.WriteSpans(&spans); err != nil {
		t.Fatal(err)
	}
	return clusterArtifacts{rep: rep, report: []byte(rep.String()), events: events, spans: spans.Bytes()}
}

// checkClusterGolden runs s and compares its three artifacts with
// testdata/cluster/<name>.*, rewriting them under -update.
func checkClusterGolden(t *testing.T, name string, s spec.ClusterV1) clusterArtifacts {
	t.Helper()
	got := runClusterSpec(t, s)
	for _, art := range []struct {
		file string
		got  []byte
	}{
		{name + "_report.txt", got.report},
		{name + "_events.jsonl", got.events},
		{name + "_spans.jsonl", got.spans},
	} {
		path := filepath.Join("testdata", "cluster", art.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, art.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(art.got, want) {
			t.Errorf("%s: output diverges from the golden (%d vs %d bytes)", path, len(art.got), len(want))
		}
	}
	return got
}

// TestClusterSpecGolden pins the bytes of the public cluster path — report,
// event stream and spans — for every spec in clusterGoldenSpecs. Re-bless
// with -update only for an intended output change.
func TestClusterSpecGolden(t *testing.T) {
	for name, s := range clusterGoldenSpecs() {
		t.Run(name, func(t *testing.T) { checkClusterGolden(t, name, s) })
	}
}
