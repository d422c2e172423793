package telemetry

import (
	"bytes"
	"os"
	"testing"
)

// FuzzValidateExposition feeds arbitrary bytes to ValidateExposition, the
// checker `vprobe-explain check` runs on user files. It must never panic,
// and an accepted stream must count at least one sample per series. The
// corpus is seeded with a served run's exposition and a two-host cluster
// run's (testdata/cluster.prom, written by `vprobe-cluster -hosts 2
// -horizon 30s -seed 1 -metrics`), whole and cut to their first lines.
func FuzzValidateExposition(f *testing.F) {
	for _, path := range []string{"../serve/testdata/served_metrics.prom", "testdata/cluster.prom"} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		lines := bytes.SplitAfter(b, []byte("\n"))
		f.Add(bytes.Join(lines[:min(len(lines), 12)], nil))
	}
	f.Add([]byte("# TYPE a histogram\na_bucket{le=\"+Inf\"} 1\na_sum 2\na_count 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		series, samples, err := ValidateExposition(data)
		if err != nil {
			if series != 0 || samples != 0 {
				t.Fatalf("rejected input counted %d series, %d samples", series, samples)
			}
			return
		}
		if series < 1 || series > samples {
			t.Fatalf("accepted input counted %d series over %d samples", series, samples)
		}
	})
}
