package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"vprobe"
	"vprobe/internal/cluster"
	"vprobe/internal/metrics"
	"vprobe/internal/spec"
)

// TestCellsRoundTripThroughPublicAPI takes one cell of each shape the
// experiments declare at smoke scale — the standard three-VM setup, Fig.
// 3's pinned solo run, Table III's all-watched VMs, the four-node machine,
// a cluster and a control-plane cluster — round-trips its spec through
// JSON, and runs it through vprobe.CompileScenario or vprobe.RunCluster:
// the public path must reproduce the cell's output, and the decoded
// spec's Key must be the cell's queue key.
func TestCellsRoundTripThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	for _, path := range []string{
		"fig4/mix/vprobe/seed0",
		"fig3/lu/solo",
		"table3/vms/2",
		"fournode/fournode/vprobe/seed0",
		"cluster/cluster/numa/vprobe/seed0",
		"cluster-controlplane/controlplane/full/seed0",
	} {
		t.Run(path, func(t *testing.T) {
			c, err := FindCell(path, smokeOpts())
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := c.run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(c.Spec)
			if err != nil {
				t.Fatal(err)
			}
			switch c.Spec.(type) {
			case spec.ScenarioV1:
				var s spec.ScenarioV1
				if err := json.Unmarshal(doc, &s); err != nil {
					t.Fatal(err)
				}
				if s.Key() != c.Spec.Key() {
					t.Fatalf("decoded key %s, queue key %s", s.Key(), c.Spec.Key())
				}
				sim, horizon, err := vprobe.CompileScenario(s, vprobe.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.RunContext(ctx, horizon); err != nil {
					t.Fatal(err)
				}
				h := sim.Hypervisor()
				got := ScenarioRun{End: h.Engine.Now(), Overhead: h.OverheadFraction()}
				for _, d := range h.Watched() {
					got.Runs = append(got.Runs, metrics.CollectDomain(d, got.End)...)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("public run differs from the cell's:\n got %+v\nwant %+v", got, want)
				}
			case spec.ClusterV1:
				var s spec.ClusterV1
				if err := json.Unmarshal(doc, &s); err != nil {
					t.Fatal(err)
				}
				if s.Key() != c.Spec.Key() {
					t.Fatalf("decoded key %s, queue key %s", s.Key(), c.Spec.Key())
				}
				rep, err := vprobe.RunCluster(ctx, s, vprobe.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rep.String(), want.(*cluster.Report).String(); got != want {
					t.Fatalf("public report differs from the cell's:\n got %s\nwant %s", got, want)
				}
			}
		})
	}
}

// TestCellNamesUnique asserts every experiment names its cells uniquely,
// so "<experiment>/<cell>" addresses exactly one simulation.
func TestCellNamesUnique(t *testing.T) {
	for _, e := range All() {
		seen := map[string]bool{}
		for _, c := range e.Cells(Options{}) {
			if seen[c.Name] {
				t.Errorf("%s declares cell %q twice", e.ID, c.Name)
			}
			seen[c.Name] = true
		}
	}
}
