package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

// cliCases cover every flag at small sizes. An argument starting with "@"
// names a file in the test's shared output directory, so a later case can
// read what an earlier one wrote (the -arrivals-out -> -arrivals-in
// replay). Every file a case creates is digested, except profiles, whose
// bytes depend on the machine.
var cliCases = []struct {
	name string
	args []string
}{
	{"default", []string{"-hosts", "2", "-horizon", "30s", "-seed", "1",
		"-spans", "@default.spans.jsonl", "-chrome", "@default.chrome.json",
		"-metrics", "@default.prom", "-arrivals-out", "@default.arrivals.jsonl"}},
	{"pack-migrating", []string{"-hosts", "3", "-horizon", "60s", "-seed", "9",
		"-policy", "pack", "-llc-limit", "20", "-rebalance", "5s", "-mix", "batch",
		"-trace", "-spans", "@pack.spans.jsonl"}},
	{"spread-server", []string{"-hosts", "3", "-horizon", "30s", "-seed", "3",
		"-policy", "spread", "-mix", "server", "-sched", "vprobe", "-workers", "2",
		"-metrics", "@spread.prom", "-metrics-every", "2s"}},
	{"numa-rates", []string{"-hosts", "2", "-horizon", "40s", "-seed", "4",
		"-policy", "numa", "-sched", "lb", "-rate", "1", "-lifetime", "20s",
		"-workers", "1"}},
	{"diurnal", []string{"-hosts", "2", "-horizon", "40s", "-seed", "2",
		"-arrival-process", "diurnal", "-diurnal-period", "20s",
		"-diurnal-amplitude", "0.5", "-rate", "1", "-arrivals-out", "@diurnal.arrivals.jsonl"}},
	{"flash", []string{"-hosts", "2", "-horizon", "40s", "-seed", "2",
		"-arrival-process", "flash", "-flash-at", "5s", "-flash-duration", "5s",
		"-flash-factor", "4", "-rate", "0.5", "-arrivals-out", "@flash.arrivals.jsonl"}},
	{"control-plane", []string{"-hosts", "2", "-horizon", "60s", "-seed", "5",
		"-rate", "1.0", "-lifetime", "500s", "-preempt", "-gang", "-gang-fraction", "0.3",
		"-gang-size", "2", "-backfill", "-deschedule", "10s", "-trace",
		"-spans", "@cp.spans.jsonl", "-arrivals-out", "@cp.arrivals.jsonl"}},
	{"replay", []string{"-hosts", "2", "-horizon", "60s", "-seed", "5",
		"-preempt", "-gang", "-gang-fraction", "0.3", "-gang-size", "2", "-backfill",
		"-deschedule", "10s", "-arrival-process", "trace", "-arrivals-in", "@cp.arrivals.jsonl",
		"-spans", "@replay.spans.jsonl", "-arrivals-out", "@replay.arrivals.jsonl"}},
	{"place-check", []string{"-hosts", "8", "-horizon", "30s", "-seed", "7",
		"-rate", "2", "-place-check"}},
	{"rebalance-off", []string{"-hosts", "3", "-horizon", "60s", "-seed", "9",
		"-policy", "pack", "-llc-limit", "20", "-rebalance", "-1s", "-mix", "batch"}},
	{"topology-file", []string{"-hosts", "2", "-horizon", "30s", "-seed", "1",
		"-topology", "testdata/xeon-e5620.json", "-spans", "@topo.spans.jsonl"}},
	{"topology-edited", []string{"-hosts", "2", "-horizon", "30s", "-seed", "1",
		"-topology", "testdata/three-node.json"}},
	{"topology-preset", []string{"-hosts", "2", "-horizon", "30s", "-seed", "1",
		"-topology", "four-node", "-sched", "credit"}},
	{"profiles", []string{"-hosts", "2", "-horizon", "30s", "-seed", "1",
		"-cpuprofile", "@cpu.pprof", "-memprofile", "@mem.pprof"}},
}

// runCLI runs the command and fails the test on a non-zero exit.
func runCLI(t *testing.T, args []string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("vprobe-cluster %s: exit %d\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.Bytes(), errOut.Bytes()
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// events keeps the -trace lines of stderr: the status lines in
// parentheses carry wall times and temporary paths.
func events(stderr []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(stderr, []byte("\n")) {
		if len(line) > 0 && line[0] != '(' {
			out = append(out, line...)
		}
	}
	return out
}

// TestCLIGolden pins the SHA-256 of every byte vprobe-cluster writes —
// stdout, -trace events, spans, Chrome trace, metrics (.prom and .jsonl)
// and exported arrivals — against testdata/digests.golden.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	stdouts := map[string][]byte{}
	for _, tc := range cliCases {
		before := map[string]bool{}
		for _, name := range listDir(t, dir) {
			before[name] = true
		}
		args := make([]string, len(tc.args))
		for i, a := range tc.args {
			if strings.HasPrefix(a, "@") {
				a = filepath.Join(dir, a[1:])
			}
			args[i] = a
		}
		stdout, stderr := runCLI(t, args)
		stdouts[tc.name] = stdout
		fmt.Fprintf(&got, "%s stdout %s\n", tc.name, sha(stdout))
		if ev := events(stderr); len(ev) > 0 {
			fmt.Fprintf(&got, "%s trace %s\n", tc.name, sha(ev))
		}
		for _, name := range listDir(t, dir) {
			if before[name] {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(name, ".pprof") {
				if len(b) == 0 {
					t.Errorf("%s: empty profile %s", tc.name, name)
				}
				continue
			}
			fmt.Fprintf(&got, "%s %s %s\n", tc.name, name, sha(b))
		}
	}
	// A topology file exported from a preset is that preset.
	if !bytes.Equal(stdouts["topology-file"], stdouts["default"]) {
		t.Error("-topology testdata/xeon-e5620.json reports differently from the xeon-e5620 preset")
	}

	path := filepath.Join("testdata", "digests.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("output digests differ from %s (re-bless with -update):\n got:\n%s\nwant:\n%s",
			path, got.String(), want)
	}
}

// listDir returns the file names in dir, sorted.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestCLIErrors pins the exit codes of bad input: 2 for a usage error, 1
// for a run that cannot start or whose exports fail.
func TestCLIErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	type errCase struct {
		name string
		args []string
		code int
		msg  string
	}
	cases := []errCase{
		{"stray argument", []string{"extra"}, 2, "unexpected arguments"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"unknown policy", []string{"-policy", "bogus"}, 1, "pack"},
		{"missing topology file", []string{"-topology", "testdata/missing.json"}, 1, "missing.json"},
		{"missing arrivals", []string{"-arrivals-in", "testdata/missing.jsonl"}, 1, "missing.jsonl"},
		// Values the spec rejects fail with its message.
		{"negative rate", []string{"-rate", "-1"}, 1, "spec: invalid field: arrivals_per_second"},
		{"gang fraction above 1", []string{"-gang-fraction", "1.5"}, 1, "spec: invalid field: gang_fraction"},
		{"gang without fraction", []string{"-gang"}, 1, "spec: invalid field: gang requires"},
		{"empty arrival trace", []string{"-arrivals-in", empty}, 1, "spec: invalid field: arrival_process"},
		{"too many hosts", []string{"-hosts", "100000000"}, 1, "spec: invalid field: hosts"},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		cases = append(cases, errCase{"unwritable arrivals",
			[]string{"-hosts", "2", "-horizon", "30s", "-arrivals-out", "/dev/full"}, 1, "no space"})
	}
	for _, tc := range cases {
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

// TestSeedZeroSpans: seed 0 means seed 1, span IDs included, so the two
// span files are identical.
func TestSeedZeroSpans(t *testing.T) {
	dir := t.TempDir()
	spans := func(seed string) []byte {
		path := filepath.Join(dir, "seed"+seed+".jsonl")
		runCLI(t, []string{"-hosts", "2", "-horizon", "30s", "-seed", seed, "-spans", path})
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(spans("0"), spans("1")) {
		t.Fatal("-seed 0 -spans differs from -seed 1 -spans")
	}
}
