package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzExplainVMs caps how many of an input's VMs every query is asked
// about, so a seed the size of a golden file still fuzzes quickly.
const fuzzExplainVMs = 16

// FuzzReadSpans feeds arbitrary bytes through the path vprobe-explain and
// vprobe-serve's explain endpoint take: ReadSpans, NewSpanIndex, then
// Summary and every Explain query about the stream's VMs (and one it does
// not name), each against a host the stream names. None may panic. The
// corpus is seeded with the cluster span goldens, whole and cut to their
// first lines.
func FuzzReadSpans(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{"../../testdata/cluster/*_spans.jsonl", "../cluster/testdata/*_spans.jsonl"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no span goldens to seed from")
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		lines := bytes.SplitAfter(b, []byte("\n"))
		f.Add(bytes.Join(lines[:min(len(lines), 24)], nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		ix := NewSpanIndex(spans)
		_ = ix.Summary()
		host := ""
		for i := range spans {
			if spans[i].Host != "" {
				host = spans[i].Host
				break
			}
		}
		vms := ix.VMs()
		vms = append(vms[:min(len(vms), fuzzExplainVMs)], "no-such-vm")
		for _, query := range strings.Split(ExplainQueries, ", ") {
			for _, vm := range vms {
				_, _ = ix.Explain(query, vm, host)
			}
		}
	})
}
