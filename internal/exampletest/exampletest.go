// Package exampletest pins the output of the programs under examples/:
// each example's main_test.go runs its main with stdout captured and
// compares the bytes with testdata/output.golden.
package exampletest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden runs main with os.Stdout redirected and compares what it printed
// with testdata/output.golden, rewriting the file under -update.
func Golden(t *testing.T, main func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-read
	r.Close()

	path := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (re-bless with -update):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
