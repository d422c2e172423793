// Command vprobe-explain answers placement provenance questions over a
// recorded span file (as written by vprobe-cluster -spans, vprobe-trace
// -spans, or the /v1/runs/{id}/spans endpoint of vprobe-serve): why a VM
// landed on its host, why another host was not chosen, why a VM was
// rejected, and who preempted it — each backed by the per-plugin
// filter/score breakdown the placement engine actually recorded at
// decision time.
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
//	vprobe-explain -validate-chrome file.json
//
// -validate-chrome checks a Chrome trace-event export (vprobe-cluster
// -chrome) for structural validity — the span twin of the Prometheus
// exposition validator — and prints the event count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"vprobe/internal/telemetry"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  %[1]s -spans file.jsonl list                 recorded VMs, one per line
  %[1]s -spans file.jsonl summary              span counts by kind
  %[1]s -spans file.jsonl why <vm>             why did <vm> land on its host
  %[1]s -spans file.jsonl why-not <vm> <host>  why was <host> not chosen
  %[1]s -spans file.jsonl rejected <vm>        why was <vm> rejected
  %[1]s -spans file.jsonl preempted <vm>       who preempted <vm>, at what cost
  %[1]s -spans file.jsonl timeline <vm>        <vm>'s full span timeline
  %[1]s -validate-chrome file.json             validate a Chrome trace export
`, os.Args[0])
	os.Exit(2)
}

func main() {
	spansPath := flag.String("spans", "", "span JSONL file to query (vprobe-cluster -spans output)")
	validateChrome := flag.String("validate-chrome", "", "validate this Chrome trace-event JSON file and exit")
	flag.Usage = usage
	flag.Parse()

	if *validateChrome != "" {
		data, err := os.ReadFile(*validateChrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("valid Chrome trace: %d events\n", n)
		return
	}
	if *spansPath == "" || flag.NArg() == 0 {
		usage()
	}
	f, err := os.Open(*spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := query(f, flag.Args())
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
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
		out := ""
		for _, vm := range ix.VMs() {
			out += vm + "\n"
		}
		return out, nil
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
