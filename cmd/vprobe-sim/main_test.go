package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprobe/internal/golden"
	"vprobe/internal/telemetry"
)

// TestTraceGoldens runs the two traced scenario documents through the
// real CLI and pins their event and span exports byte for byte. The
// empty run has no apps: its event stream is a valid, empty JSONL
// document, and its spans still carry the run and the domain lifecycle.
func TestTraceGoldens(t *testing.T) {
	for _, name := range []string{"soplex", "empty"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			events, spans, chrome := filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "c.json")
			var stdout, stderr bytes.Buffer
			args := []string{"-spec", filepath.Join("testdata", "trace-"+name+".json"),
				"-events", events, "-spans", spans, "-chrome", chrome}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "scheduler=vprobe end=1s") {
				t.Errorf("no report on stdout: %q", stdout.String())
			}
			for _, f := range []struct{ path, golden string }{
				{events, name + "_events.jsonl"},
				{spans, name + "_spans.jsonl"},
			} {
				b, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				golden.Check(t, filepath.Join("testdata", f.golden), b)
			}
			b, err := os.ReadFile(chrome)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := telemetry.ValidateChromeTrace(b); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCLIErrors pins the exit codes of bad input: 2 for a usage error, 1
// for a run that cannot start or does not finish.
func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	cluster := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(cluster, []byte(`{"hosts":2,"horizon":"30s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "same.out")
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"export without -spec", []string{"-events", out}, 2, "name it with -spec"},
		{"export with experiments", []string{"-spec", "testdata/trace-empty.json", "-spans", out, "fig3"}, 2, "without experiment arguments"},
		{"unknown cell", []string{"-spec", "fig5/nope"}, 1, "fig5"},
		{"scenario timeout", []string{"-spec", "testdata/trace-soplex.json", "-events", out, "-timeout", "1ns"}, 1, "context deadline exceeded"},
		{"cluster timeout", []string{"-spec", cluster, "-spans", out, "-timeout", "1ns"}, 1, "context deadline exceeded"},
		{"export clash", []string{"-spec", cluster, "-spans", out, "-chrome", out}, 1, "-spans and -chrome both write"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.msg)
			}
		})
	}
}
