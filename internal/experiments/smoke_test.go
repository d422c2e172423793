package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vprobe/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke_digests.json")

// smokeDigestsPath pins the SHA-256 of every experiment's rendered output
// at the smoke options, so a refactor of the experiment wiring is proved
// output-preserving by digest.
var smokeDigestsPath = filepath.Join("testdata", "smoke_digests.json")

// TestAllExperimentsSmoke runs every registered experiment end-to-end at a
// small scale, asserting each produces populated tables and series, and
// that its rendered output matches the pinned digest. This is the cheap
// guarantee that `vprobe-sim` can always regenerate every paper artifact.
func TestAllExperimentsSmoke(t *testing.T) {
	opts := Options{
		Scale:   0.15,
		Repeats: 1,
		Seed:    1,
		Horizon: 60 * sim.Second,
	}
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(smokeDigestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(smokeDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.RunContext(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q, want %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range res.Tables {
				if tab.NumRows() == 0 {
					t.Fatalf("table %q empty", tab.Title)
				}
			}
			if len(res.Series) == 0 {
				t.Fatal("no machine-readable series produced")
			}
			out := res.String()
			if !strings.Contains(out, e.ID) {
				t.Fatal("String() missing experiment id")
			}
			sum := sha256.Sum256([]byte(out))
			digest := hex.EncodeToString(sum[:])
			got[e.ID] = digest
			// Float results are pinned on amd64 only: other architectures
			// may fuse multiply-adds and legitimately differ in the last bit.
			if !*update && runtime.GOARCH == "amd64" && want[e.ID] != digest {
				t.Errorf("output digest %s, pinned %q (re-pin with -update only for an intended change):\n%s",
					digest, want[e.ID], out)
			}
			// Exports must not fail on any experiment's data.
			paths, err := res.Export(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != 2 {
				t.Fatalf("exported %v", paths)
			}
		})
	}
}
