// Package exampletest pins the output of the programs under examples/:
// each example's main_test.go runs its main with stdout captured and
// compares the bytes with testdata/output.golden.
package exampletest

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"vprobe/internal/golden"
)

// Golden runs main with os.Stdout redirected and compares what it printed
// with testdata/output.golden.
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
	golden.Check(t, filepath.Join("testdata", "output.golden"), got)
}
