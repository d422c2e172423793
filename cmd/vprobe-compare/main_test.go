package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vprobe/internal/golden"
)

// fast keeps each golden run well under a second.
var fast = []string{"-sched", "credit,vprobe", "-seeds", "1", "-scale", "0.05", "-horizon", "30"}

// TestGoldenTables pins the printed comparison for the default workload
// pair on the paper's machine and for a mixed batch/server pair on the
// four-node preset.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("float output is pinned on amd64")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"four_node.golden", []string{"-topo", "four-node", "-w", "lu:2,libquantum:2", "-i", "memcached@64:2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(append([]string(nil), fast...), tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.golden), out.Bytes())
		})
	}
}

// TestRejectsBadInput asserts invalid flags fail before any simulation
// runs and say what is wrong.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero seeds", []string{"-seeds", "0"}, "-seeds 0"},
		{"empty scheduler", []string{"-sched", "credit,,vprobe"}, "empty scheduler name"},
		{"unknown scheduler", []string{"-sched", "credit,fifo"}, "brm credit lb vcpu-p vprobe"},
		{"too many apps", []string{"-w", "soplex:9"}, "at most 8 apps"},
		{"topology file", []string{"-topo", "testdata/machine.json"}, "four-node, uma, xeon-e5620"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("printed output on bad input:\n%s", out.String())
			}
		})
	}
}
