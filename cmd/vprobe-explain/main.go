// Command vprobe-explain inspects what a run recorded. Over a span file
// (as written by -spans of vprobe-sim -spec or vprobe-cluster, or by the
// /v1/runs/{id}/spans endpoint of vprobe-serve) it answers placement
// provenance questions: why a VM landed on its host, why another host was
// not chosen, why a VM was rejected, and who preempted it — each backed
// by the per-plugin filter/score breakdown the placement engine actually
// recorded at decision time. It also validates and compares the other
// exports.
//
// Usage:
//
//	vprobe-explain -spans file.jsonl list
//	vprobe-explain -spans file.jsonl summary
//	vprobe-explain -spans file.jsonl why <vm>
//	vprobe-explain -spans file.jsonl why-not <vm> <host>
//	vprobe-explain -spans file.jsonl rejected <vm>
//	vprobe-explain -spans file.jsonl preempted <vm>
//	vprobe-explain -spans file.jsonl timeline <vm>
//	vprobe-explain check file.prom|file.json
//	vprobe-explain diff a.jsonl b.jsonl
//
// check validates a -metrics Prometheus text exposition (.prom) and
// reports its series and sample counts, or a -chrome trace-event export
// (.json) and reports its event count. diff compares two runs' -metrics
// JSONL time series, printing the final-value and mean deltas of every
// series present in both files and noting series present in only one —
// the before/after comparison of a scheduler or configuration change.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"vprobe/internal/telemetry"
)

const usage = `usage:
  vprobe-explain -spans file.jsonl list                 recorded VMs, one per line
  vprobe-explain -spans file.jsonl summary              span counts by kind
  vprobe-explain -spans file.jsonl why <vm>             why did <vm> land on its host
  vprobe-explain -spans file.jsonl why-not <vm> <host>  why was <host> not chosen
  vprobe-explain -spans file.jsonl rejected <vm>        why was <vm> rejected
  vprobe-explain -spans file.jsonl preempted <vm>       who preempted <vm>, at what cost
  vprobe-explain -spans file.jsonl timeline <vm>        <vm>'s full span timeline
  vprobe-explain check file.prom|file.json              validate a metrics or Chrome trace export
  vprobe-explain diff a.jsonl b.jsonl                   compare two runs' metric time series
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, answers one subcommand on
// stdout, writes diagnostics to stderr and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vprobe-explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spansPath := fs.String("spans", "", "span JSONL file to query (a -spans export)")
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	args = fs.Args()
	var out string
	var err error
	switch {
	case *spansPath != "" && len(args) > 0:
		var f *os.File
		if f, err = os.Open(*spansPath); err == nil {
			out, err = query(f, args)
			f.Close()
		}
	case *spansPath == "" && len(args) == 2 && args[0] == "check":
		out, err = check(args[1])
	case *spansPath == "" && len(args) == 3 && args[0] == "diff":
		out, err = diff(args[1], args[2])
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}

// query loads the span stream and answers one subcommand — separated from
// main so tests can drive the CLI end to end.
func query(r io.Reader, args []string) (string, error) {
	spans, err := telemetry.ReadSpans(r)
	if err != nil {
		return "", err
	}
	ix := telemetry.NewSpanIndex(spans)
	cmd := args[0]
	need := func(n int, form string) error {
		if len(args) != n {
			return fmt.Errorf("vprobe-explain: %s needs %q", cmd, form)
		}
		return nil
	}
	switch cmd {
	case "list":
		if err := need(1, "list"); err != nil {
			return "", err
		}
		vms := ix.VMs()
		if len(vms) == 0 {
			return "", nil
		}
		return strings.Join(vms, "\n") + "\n", nil
	case "summary":
		if err := need(1, "summary"); err != nil {
			return "", err
		}
		return ix.Summary(), nil
	}
	if !slices.Contains(strings.Split(telemetry.ExplainQueries, ", "), cmd) {
		return "", fmt.Errorf("vprobe-explain: unknown subcommand %q (have list, summary, %s)",
			cmd, telemetry.ExplainQueries)
	}
	n, form := 2, cmd+" <vm>"
	if cmd == "why-not" {
		n, form = 3, form+" <host>"
	}
	if err := need(n, form); err != nil {
		return "", err
	}
	host := ""
	if n == 3 {
		host = args[2]
	}
	return ix.Explain(cmd, args[1], host)
}

// check validates one export by its suffix: a Prometheus text exposition
// (.prom) or a Chrome trace-event file (.json).
func check(path string) (string, error) {
	ext := filepath.Ext(path)
	if ext != ".prom" && ext != ".json" {
		return "", fmt.Errorf("vprobe-explain: check %s: want a .prom exposition or a .json Chrome trace", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if ext == ".json" {
		n, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return fmt.Sprintf("valid Chrome trace: %d events\n", n), nil
	}
	series, samples, err := telemetry.ValidateExposition(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return fmt.Sprintf("ok: %d series, %d samples\n", series, samples), nil
}

// seriesData is one run's JSONL time series: each series' final value,
// sum and sample count, plus the row count.
type seriesData struct {
	rows   int
	final  map[string]float64
	sum    map[string]float64
	counts map[string]int
}

// readSeries parses one JSONL time-series file.
func readSeries(path string) (*seriesData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &seriesData{
		final:  make(map[string]float64),
		sum:    make(map[string]float64),
		counts: make(map[string]int),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec map[string]float64
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, d.rows+1, err)
		}
		d.rows++
		for k, v := range rec {
			if k == "t" {
				continue
			}
			d.final[k] = v
			d.sum[k] += v
			d.counts[k]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d.rows == 0 {
		return nil, fmt.Errorf("%s: no samples", path)
	}
	return d, nil
}

// diff compares two runs' JSONL time series series by series.
func diff(pathA, pathB string) (string, error) {
	a, err := readSeries(pathA)
	if err != nil {
		return "", err
	}
	b, err := readSeries(pathB)
	if err != nil {
		return "", err
	}
	// Union of series names, sorted for a stable report.
	names := make([]string, 0, len(a.final))
	for k := range a.final {
		names = append(names, k)
	}
	for k := range b.final {
		if _, ok := a.final[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	var out strings.Builder
	fmt.Fprintf(&out, "a: %s (%d samples)\nb: %s (%d samples)\n\n", pathA, a.rows, pathB, b.rows)
	fmt.Fprintf(&out, "%-52s %14s %14s %14s\n", "series", "final a", "final b", "mean delta")
	onlyA, onlyB := 0, 0
	for _, k := range names {
		fa, inA := a.final[k]
		fb, inB := b.final[k]
		switch {
		case !inB:
			onlyA++
			fmt.Fprintf(&out, "%-52s %14.6g %14s %14s\n", k, fa, "-", "only in a")
		case !inA:
			onlyB++
			fmt.Fprintf(&out, "%-52s %14s %14.6g %14s\n", k, "-", fb, "only in b")
		default:
			meanA := a.sum[k] / float64(a.counts[k])
			meanB := b.sum[k] / float64(b.counts[k])
			fmt.Fprintf(&out, "%-52s %14.6g %14.6g %+14.6g\n", k, fa, fb, meanB-meanA)
		}
	}
	if onlyA+onlyB > 0 {
		fmt.Fprintf(&out, "\n%d series only in a, %d only in b\n", onlyA, onlyB)
	}
	return out.String(), nil
}
