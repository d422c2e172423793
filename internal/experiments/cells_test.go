package experiments

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"vprobe"
	"vprobe/internal/cluster"
	"vprobe/internal/metrics"
	"vprobe/internal/sim"
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

// TestPairCountsSeeds: MeasureOf reads the value and its direction off the
// spec, and Pair counts a seed as better in that direction, a tie apart. A
// seed whose baseline value is 0 has a NaN diff and counts in neither.
func TestPairCountsSeeds(t *testing.T) {
	run := func(requests float64, exec sim.Duration) ScenarioRun {
		return ScenarioRun{End: sim.Time(sim.Second), Runs: []metrics.AppRun{{Requests: requests, ExecTime: exec}}}
	}
	base := []ScenarioRun{run(100, 10*sim.Second), run(100, 10*sim.Second), run(100, 10*sim.Second), run(0, 0)}
	runs := []ScenarioRun{run(110, 12*sim.Second), run(100, 10*sim.Second), run(90, 8*sim.Second), run(50, 5*sim.Second)}
	std := func(apps []spec.AppV1) spec.ScenarioV1 {
		return standard("xeon-e5620", "", 1, apps, nil, Options{Scale: 1})
	}
	// Without a watch list every VM is watched, the hungry burners in VM3
	// too: endless, but no server, so the measure stays exec(s).
	unwatched := std(named("soplex", 1))
	unwatched.Watch = nil
	for _, tc := range []struct {
		label string
		spec  spec.ScenarioV1
		name  string
		diffs []float64
	}{
		{"redis", std([]spec.AppV1{{Server: "redis", Load: 2000}}), "req/s", []float64{0.1, 0, -0.1}},
		{"soplex", std(named("soplex", 1)), "exec(s)", []float64{0.2, 0, -0.2}},
		{"soplex beside hungry", std(append(named("soplex", 1), named("hungry", 1)...)), "exec(s)", []float64{0.2, 0, -0.2}},
		{"every VM watched", unwatched, "exec(s)", []float64{0.2, 0, -0.2}},
	} {
		m := MeasureOf(tc.spec)
		p := Pair(m, base, runs)
		if m.Name != tc.name || p.Better != 1 || p.Ties != 1 {
			t.Errorf("%s: measure %q, %d better and %d tied; want %q, 1 and 1", tc.label, m.Name, p.Better, p.Ties, tc.name)
		}
		for i, want := range tc.diffs {
			if math.Abs(p.Diffs[i]-want) > 1e-12 {
				t.Errorf("%s: seed %d diff %v, want %v", tc.label, i, p.Diffs[i], want)
			}
		}
		if !math.IsNaN(p.Diffs[3]) {
			t.Errorf("%s: diff %v against a zero baseline, want NaN", tc.label, p.Diffs[3])
		}
	}
}
