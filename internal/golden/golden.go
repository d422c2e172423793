// Package golden compares test output with committed golden files. Every
// golden test in the module goes through Check, so one environment
// variable re-blesses them all:
//
//	VPROBE_UPDATE=1 go test ./...
//
// rewrites each golden file whose bytes changed and logs one
// "golden: rewrote <path>" line per file (add -v to see them). Re-bless
// only for an intended output change.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Check compares got with the golden file at path. Under VPROBE_UPDATE=1
// it rewrites the file instead when its bytes differ or it is missing.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err == nil && bytes.Equal(got, want) {
		return
	}
	if os.Getenv("VPROBE_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s", path)
		return
	}
	if err != nil {
		t.Fatalf("%v (create it with VPROBE_UPDATE=1)", err)
	}
	t.Errorf("%s: output differs from the golden file (re-bless with VPROBE_UPDATE=1 only for an intended change)\n%s",
		path, firstDiff(got, want))
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return ""
}
