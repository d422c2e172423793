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

// TestRunRejectsSeriesClash: -metrics x.prom writes its series to
// x.jsonl, so -spans x.jsonl alongside it is refused before the run.
func TestRunRejectsSeriesClash(t *testing.T) {
	dir := t.TempDir()
	ex := Exports{Metrics: filepath.Join(dir, "x.prom"), Spans: filepath.Join(dir, "x.jsonl")}
	err := Run(context.Background(), vprobe.ClusterSpec{Hosts: 1}, ex, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "overwrite") {
		t.Fatalf("Run = %v, want the series clash refused", err)
	}
}
