package specrun

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprobe"
)

// TestLoadKinds: a document is the one kind it strictly decodes and
// validates as, and a document of neither kind names both.
func TestLoadKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(`{"hosts":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Load(path, nil); err != nil || typeName(s) != "spec.ClusterV1" {
		t.Fatalf("Load(%s) = %s, %v; want a cluster spec", path, typeName(s), err)
	}
	cases := []struct {
		name, doc string
		want      string // the Go type, or the error substring
	}{
		{"scenario", `{"horizon":"1s","vms":[{"name":"vm0","memory_mb":1024,"vcpus":1,"apps":[{"name":"lu"}]}]}`, "spec.ScenarioV1"},
		{"cluster", `{"hosts":2,"horizon":"30s"}`, "spec.ClusterV1"},
		{"empty document", `{}`, "spec.ClusterV1"},
		{"unknown field", `{"hosts":2,"bogus":1}`, "neither a scenario spec"},
		{"invalid cluster", `{"hosts":-1}`, "nor a cluster spec (spec: invalid field: hosts"},
		{"scenario without vms", `{"scheduler":"vprobe","vms":[]}`, "vms must list at least one VM"},
		{"trailing data", `{"hosts":2} {"hosts":3}`, "trailing data"},
		{"not json", `hosts: 2`, "neither"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Load("-", strings.NewReader(tc.doc))
			var got string
			if err != nil {
				got = err.Error()
			} else {
				got = typeName(s)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("Load(%s) = %q, want %q", tc.doc, got, tc.want)
			}
		})
	}
}

func typeName(v any) string {
	switch v.(type) {
	case vprobe.ScenarioSpec:
		return "spec.ScenarioV1"
	case vprobe.ClusterSpec:
		return "spec.ClusterV1"
	}
	return "?"
}

// TestRunRejectsExportClash: no two exports may name one file, the
// derived -metrics series file included. A clash is refused before the
// run, so no export file is created.
func TestRunRejectsExportClash(t *testing.T) {
	cases := []struct {
		name string
		ex   func(dir string) Exports
		want string
	}{
		{"series and spans", func(d string) Exports {
			return Exports{Metrics: filepath.Join(d, "x.prom"), Spans: filepath.Join(d, "x.jsonl")}
		}, "-spans and the -metrics time series"},
		{"series and events", func(d string) Exports {
			return Exports{Metrics: filepath.Join(d, "x.prom"), Events: filepath.Join(d, "x.jsonl")}
		}, "-events and the -metrics time series"},
		{"spans and chrome", func(d string) Exports {
			return Exports{Spans: filepath.Join(d, "same.out"), Chrome: d + "/./same.out"}
		}, "-spans and -chrome"},
		{"metrics and arrivals", func(d string) Exports {
			return Exports{Metrics: filepath.Join(d, "m"), Arrivals: filepath.Join(d, "m")}
		}, "-metrics and -arrivals-out"},
		{"arrivals and events", func(d string) Exports {
			return Exports{Arrivals: filepath.Join(d, "a"), Events: filepath.Join(d, "a")}
		}, "-arrivals-out and -events"},
		{"chrome and cpuprofile", func(d string) Exports {
			return Exports{Chrome: filepath.Join(d, "c"), CPUProfile: filepath.Join(d, "c")}
		}, "-chrome and -cpuprofile"},
		{"cpuprofile and memprofile", func(d string) Exports {
			return Exports{CPUProfile: filepath.Join(d, "p"), MemProfile: filepath.Join(d, "p")}
		}, "-cpuprofile and -memprofile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			err := Run(context.Background(), vprobe.ClusterSpec{Hosts: 1}, tc.ex(dir), io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want %q refused", err, tc.want)
			}
			if ents, _ := os.ReadDir(dir); len(ents) > 0 {
				t.Errorf("a refused run created %s", ents[0].Name())
			}
		})
	}
}
