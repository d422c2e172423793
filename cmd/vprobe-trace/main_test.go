package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprobe/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/name, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden file (re-bless with -update):\n got: %q\nwant: %q",
			name, got, want)
	}
}

// checkJSONL asserts every non-blank line of stream is a JSON object.
func checkJSONL(t *testing.T, stream []byte) int {
	t.Helper()
	lines := 0
	for i, line := range strings.Split(string(stream), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		lines++
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i+1, err, line)
		}
	}
	return lines
}

// TestEmptyRunJSONGolden is the empty-run contract: -json with no apps
// emits a valid, empty JSONL event stream on stdout (zero lines is a
// well-formed document), the report on stderr, and a valid span file that
// still carries the run and domain lifecycle spans.
func TestEmptyRunJSONGolden(t *testing.T) {
	var stdout, stderr, spans bytes.Buffer
	opts := options{sched: "vprobe", seconds: 1, apps: "", seed: 1, asJSON: true, spans: &spans}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if n := checkJSONL(t, stdout.Bytes()); n != 0 {
		t.Fatalf("empty run emitted %d events, want 0", n)
	}
	golden(t, "empty_events.jsonl", stdout.Bytes())
	golden(t, "empty_spans.jsonl", spans.Bytes())
	if !strings.Contains(stderr.String(), "scheduler") {
		t.Fatalf("-json moved no report to stderr: %q", stderr.String())
	}
	parsed, err := telemetry.ReadSpans(bytes.NewReader(spans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Even an empty run records provenance: the run root plus the traced
	// domain's lifecycle span.
	if len(parsed) != 2 {
		t.Fatalf("empty run recorded %d spans, want 2 (run + domain)", len(parsed))
	}
}

// TestSpansEnabledGolden runs a real traced second and pins the span
// flight recorder output: golden JSONL, a Chrome export the independent
// validator accepts, and a machine-readable event stream.
func TestSpansEnabledGolden(t *testing.T) {
	var stdout, stderr, spans, chrome bytes.Buffer
	opts := options{
		sched: "vprobe", seconds: 1, apps: "soplex", seed: 1,
		asJSON: true, spans: &spans, chrome: &chrome,
	}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if n := checkJSONL(t, stdout.Bytes()); n == 0 {
		t.Fatal("traced run emitted no events")
	}
	golden(t, "soplex_events.jsonl", stdout.Bytes())
	golden(t, "soplex_spans.jsonl", spans.Bytes())
	if _, err := telemetry.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Same options, second run: the span file is byte-identical.
	var spans2 bytes.Buffer
	opts2 := opts
	opts2.spans, opts2.chrome = &spans2, nil
	var so, se bytes.Buffer
	if err := run(opts2, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spans.Bytes(), spans2.Bytes()) {
		t.Fatal("two same-seed runs produced different span files")
	}
	if !bytes.Equal(stdout.Bytes(), so.Bytes()) {
		t.Fatal("two same-seed runs produced different event streams")
	}
}

// TestBlankAppsSkipped pins the -apps parsing contract: blanks and stray
// commas mean "no apps", not an error.
func TestBlankAppsSkipped(t *testing.T) {
	for _, apps := range []string{"", " ", ",", "soplex,", " soplex , "} {
		var stdout, stderr bytes.Buffer
		opts := options{sched: "vprobe", seconds: 0.01, apps: apps, seed: 1, asJSON: true}
		if err := run(opts, &stdout, &stderr); err != nil {
			t.Fatalf("-apps %q: %v", apps, err)
		}
	}
}
