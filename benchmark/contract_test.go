package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must describe exactly what this program runs and prints,
// within the schema's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	var got []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program runs %v", got, workloadNames())
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bf.Paths)
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

// Every published number behind paper_gap_pp must name a source and an
// experiment its workload runs, and say how to derive it.
func TestPaperRefsAreComplete(t *testing.T) {
	var refs map[string][]map[string]any
	if err := json.Unmarshal(paperRefJSON, &refs); err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]paperConfig{paperBatch.name: paperBatch, paperServers.name: paperServers}
	total := 0
	for workload, list := range refs {
		cfg, ok := cfgs[workload]
		if !ok {
			t.Fatalf("paper_ref.json names unknown workload %q", workload)
		}
		for _, r := range paperRefs[workload] {
			total++
			if !strings.Contains(strings.Join(cfg.ids, " "), r.Experiment) {
				t.Errorf("%s: experiment %q is not run by the workload", workload, r.Experiment)
			}
			if r.Kind != "reduction" && r.Kind != "percent" && (r.Kind != "gain" || r.BaseSeries == "") {
				t.Errorf("%s %s: kind %q", workload, r.Experiment, r.Kind)
			}
		}
		for _, raw := range list {
			if src, _ := raw["source"].(string); !strings.Contains(src, "EXPERIMENTS.md line") {
				t.Errorf("%s %v: source must name the paper figure and the EXPERIMENTS.md line", workload, raw["id"])
			}
		}
	}
	if total != 5 {
		t.Errorf("%d paper numbers, want the five behind paper_gap_pp", total)
	}
}
