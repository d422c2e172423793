package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
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

// cliCase is one bad command line: the exit code it must end with and a
// piece of what it must print on stderr. A usage error (exit 2) must print
// nothing on stdout.
type cliCase struct {
	name string
	args []string
	code int
	msg  string
}

// checkCLI runs each case as a subtest.
func checkCLI(t *testing.T, cases []cliCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.msg)
			}
			if tc.code == 2 && stdout.Len() != 0 {
				t.Errorf("usage error printed %q to stdout", stdout.String())
			}
		})
	}
}

// writeCluster writes a small cluster document into dir.
func writeCluster(t *testing.T, dir string) string {
	t.Helper()
	cluster := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(cluster, []byte(`{"hosts":2,"horizon":"30s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return cluster
}

// TestCLIErrors pins the exit codes of bad input: 2 for a usage error, 1
// for a run that cannot start or does not finish.
func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	cluster := writeCluster(t, dir)
	out := filepath.Join(dir, "same.out")
	checkCLI(t, []cliCase{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"export without -spec", []string{"-events", out}, 2, "name it with -spec"},
		{"export with experiments", []string{"-spec", "testdata/trace-empty.json", "-spans", out, "fig3"}, 2, "without experiment arguments"},
		{"unknown cell", []string{"-spec", "fig5/nope"}, 1, "fig5"},
		{"scenario timeout", []string{"-spec", "testdata/trace-soplex.json", "-events", out, "-timeout", "1ns"}, 1, "context deadline exceeded"},
		{"cluster timeout", []string{"-spec", cluster, "-spans", out, "-timeout", "1ns"}, 1, "context deadline exceeded"},
		{"export clash", []string{"-spec", cluster, "-spans", out, "-chrome", out}, 1, "-spans and -chrome both write"},
		{"seed with a document", []string{"-spec", "testdata/trace-soplex.json", "-seed", "9"}, 2, `document's "seed" and "scale" fields`},
		{"scale with a document", []string{"-spec", "testdata/trace-soplex.json", "-scale", "0.7"}, 2, `document's "seed" and "scale" fields`},
	})
}

// TestCompareRejectsBadInput pins -compare's usage errors: each exits 2
// before any run starts.
func TestCompareRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	cluster := writeCluster(t, dir)
	out := filepath.Join(dir, "same.out")
	doc := "testdata/compare-soplex.json"
	checkCLI(t, []cliCase{
		{"without -spec", []string{"-compare", "credit,vprobe"}, 2, "name it with -spec"},
		{"with experiments", []string{"-spec", doc, "-compare", "credit,vprobe", "fig3"}, 2, "without experiment arguments"},
		{"with an export", []string{"-spec", doc, "-compare", "credit,vprobe", "-events", out}, 2, "takes no -events"},
		{"a cluster", []string{"-spec", cluster, "-compare", "credit,vprobe"}, 2, "is a cluster spec"},
		{"zero seeds", []string{"-spec", doc, "-compare", "credit,vprobe", "-seeds", "0"}, 2, "-seeds 0: need at least 1"},
		{"empty scheduler", []string{"-spec", doc, "-compare", "credit,,vprobe"}, 2, "brm, credit, lb, vcpu-p, vprobe"},
		{"unknown scheduler", []string{"-spec", doc, "-compare", "credit,fifo"}, 2, `"fifo" (have brm, credit, lb, vcpu-p, vprobe)`},
		{"seeds without compare", []string{"-spec", doc, "-seeds", "2"}, 2, "-seeds needs -compare"},
	})
}

// TestCompareGoldens pins -compare's tables on the two committed
// standard-setup documents: soplex against soplex on the paper's machine,
// and lu and libquantum against memcached on the four-node preset.
func TestCompareGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("float output is pinned on amd64")
	}
	for _, name := range []string{"compare-soplex", "compare-four-node"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-spec", filepath.Join("testdata", name+".json"), "-compare", "credit,vprobe", "-seeds", "1", "-q"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", name+".golden"), stdout.Bytes())
		})
	}
}

// TestCompareFig7 runs Fig. 7's 2000-connection cell through -compare at
// the suite's three seeds: the means are the committed fig7 row, and each
// seed's difference is vProbe's loss to LB.
func TestCompareFig7(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("float output is pinned on amd64")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-spec", "fig7/redis-2000/lb/seed0", "-scale", "1", "-compare", "lb,vprobe", "-seeds", "3", "-q"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"lb         29594", "vprobe     28108",
		"vprobe     0 of 3  0     -7.1%  -3.6%  -4.3% -3.6% -7.1%",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestCompareBatchMeasure: trace-soplex.json watches every VM, its hungry
// burners too. They never finish but serve no requests, so -compare judges
// the runs by execution time.
func TestCompareBatchMeasure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-spec", "testdata/trace-soplex.json", "-compare", "credit,vprobe", "-seeds", "1", "-q"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "exec(s)") || strings.Contains(out, "req/s") {
		t.Errorf("output does not compare by exec(s):\n%s", out)
	}
}

// TestCompareWorkers: -compare prints the same bytes at every worker
// count.
func TestCompareWorkers(t *testing.T) {
	for _, name := range []string{"compare-soplex", "compare-four-node"} {
		var first string
		for _, workers := range []string{"1", "4", "8"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-spec", filepath.Join("testdata", name+".json"), "-compare", "credit,vprobe,lb",
				"-seeds", "3", "-workers", workers, "-q"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s at %s workers: exit %d\n%s", name, workers, code, stderr.String())
			}
			if first == "" {
				first = stdout.String()
			} else if stdout.String() != first {
				t.Fatalf("%s: output at %s workers differs from 1 worker:\n%s\nvs\n%s", name, workers, stdout.String(), first)
			}
		}
	}
}
