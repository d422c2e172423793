package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// golden.json holds the SHA-256 of every checked output for seeds 1 and
// 2, keyed workload -> seed -> item (an experiment id, or "report" for the
// cluster run). Other seeds are checked for determinism and traced-run
// transparency only. An intentional change to simulated results must
// refresh it from the "digests" notes a run prints on standard error.
//
//go:embed golden.json
var goldenJSON []byte

var golden = mustDecode[map[string]map[string]map[string]string](goldenJSON, "golden.json")

// paperRef is one published number behind paper_gap_pp; the file also
// gives each its id and source.
type paperRef struct {
	Experiment string `json:"experiment"`
	// Kind says how the figure is derived from the series: "reduction"
	// is 100*(1-v), "percent" is 100*v, and "gain" is 100*(v/base-1).
	Kind       string  `json:"kind"`
	Series     string  `json:"series"`
	BaseSeries string  `json:"base_series,omitempty"`
	Label      string  `json:"label"`
	PaperPct   float64 `json:"paper_pct"`
}

//go:embed paper_ref.json
var paperRefJSON []byte

var paperRefs = mustDecode[map[string][]paperRef](paperRefJSON, "paper_ref.json")

func mustDecode[T any](data []byte, name string) T {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		panic(fmt.Sprintf("benchmark: embedded %s: %v", name, err))
	}
	return v
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldenDigest looks up the stored SHA-256 of one output item for a
// workload and seed; ok is false when no digest is stored.
func goldenDigest(workload string, seed uint64, item string) (string, bool) {
	d, ok := golden[workload][strconv.FormatUint(seed, 10)][item]
	return d, ok
}

// digestNote renders digests as JSON, keys sorted, for golden.json.
func digestNote(d map[string]string) string {
	b, err := json.Marshal(d)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
