package numa

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"vprobe/internal/sim"
)

const sampleJSON = `{
  "name": "my-box",
  "nodes": 2,
  "cpusPerNode": 8,
  "memoryPerNodeMB": 65536,
  "imcBandwidthGBs": 40,
  "llcSizeKB": 32768,
  "clockGHz": 3.0,
  "localMemLatencyNS": 80,
  "remoteMemLatencyNS": 140,
  "llcHitLatencyNS": 14,
  "linkBandwidthGTs": 9.6,
  "linksPerPair": 1
}`

func TestDecode(t *testing.T) {
	top, err := Decode(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if top.Name() != "my-box" || top.NumCPUs() != 16 || top.ClockGHz() != 3.0 {
		t.Fatalf("decoded %s", top)
	}
	if top.MemLatencyNS(0, 1) != 140 {
		t.Fatalf("remote latency = %v", top.MemLatencyNS(0, 1))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{`,                 // truncated
		`{"bogusField": 1}`, // unknown key
		`{"nodes": 0}`,      // invalid config
		`{"nodes": 2, "cpusPerNode": 4, "memoryPerNodeMB": 1024,
		  "imcBandwidthGBs": 10, "llcSizeKB": 1024, "clockGHz": 2,
		  "localMemLatencyNS": 100, "remoteMemLatencyNS": 50}`, // remote < local
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestExportRoundTrip dumps every preset to its JSON form, reloads it,
// and asserts the rebuilt topology is indistinguishable from the original
// (this is the contract behind vprobe-topo -json).
func TestExportRoundTrip(t *testing.T) {
	for name, mk := range Presets {
		orig := mk()
		fc := Export(orig)
		data, err := json.Marshal(fc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		if Export(back) != fc {
			t.Fatalf("%s: round trip drifted:\n  out  %+v\n  back %+v", name, fc, Export(back))
		}
		if back.Name() != orig.Name() || back.NumNodes() != orig.NumNodes() ||
			back.NumCPUs() != orig.NumCPUs() ||
			back.TotalMemoryMB() != orig.TotalMemoryMB() ||
			back.ClockGHz() != orig.ClockGHz() {
			t.Fatalf("%s: rebuilt topology differs: %s vs %s", name, back, orig)
		}
		for a := 0; a < orig.NumNodes(); a++ {
			for b := 0; b < orig.NumNodes(); b++ {
				if back.MemLatencyNS(NodeID(a), NodeID(b)) != orig.MemLatencyNS(NodeID(a), NodeID(b)) {
					t.Fatalf("%s: latency(%d,%d) drifted", name, a, b)
				}
			}
		}
	}
}

func TestLoadFileAndResolve(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "box.json")
	if err := os.WriteFile(path, []byte(sampleJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	top, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 2 {
		t.Fatalf("nodes = %d", top.NumNodes())
	}
	// Resolve: preset name wins.
	preset, err := Resolve("xeon-e5620")
	if err != nil {
		t.Fatal(err)
	}
	if preset.ClockGHz() != 2.40 {
		t.Fatal("preset resolution broken")
	}
	// Resolve: falls back to a file path.
	fromFile, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Name() != "my-box" {
		t.Fatal("file resolution broken")
	}
	// Resolve: neither.
	if _, err := Resolve("no-such-thing"); err == nil {
		t.Fatal("bogus name accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestAvailableMBMatchesSort checks the in-place selection against the
// copy-and-sort definition on random vectors of up to 8 nodes, for every
// k, with values drawn from a small range so ties are common.
func TestAvailableMBMatchesSort(t *testing.T) {
	ref := func(free []int64, k int) int64 {
		sorted := append([]int64(nil), free...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		var sum int64
		for i := 0; i < max(k, 1) && i < len(sorted); i++ {
			sum += sorted[i]
		}
		return sum
	}
	rng := sim.NewRNG(7)
	for trial := 0; trial < 2000; trial++ {
		free := make([]int64, 1+rng.Intn(8))
		for n := range free {
			free[n] = int64(rng.Intn(6)) * 1024
		}
		orig := slices.Clone(free)
		for k := 0; k <= len(free)+1; k++ {
			if got, want := AvailableMB(free, k), ref(free, k); got != want {
				t.Fatalf("AvailableMB(%v, %d) = %d, sorted reference %d", free, k, got, want)
			}
		}
		if !slices.Equal(free, orig) {
			t.Fatalf("AvailableMB modified its input: %v, was %v", free, orig)
		}
	}
}
