package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"vprobe/internal/cluster"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

// FuzzValidateChromeTrace feeds arbitrary bytes through the Chrome
// trace checker vprobe-explain check runs on user files. It must never
// panic, and an accepted input's event count must be its top-level array
// length. The corpus is seeded with a small traced cluster run's
// WriteChromeTrace export, cut short, and with its fields mistyped.
func FuzzValidateChromeTrace(f *testing.F) {
	tr := telemetry.NewTracer(1, 0)
	c, err := cluster.New(cluster.Config{Hosts: 2, Horizon: 20 * sim.Second, Seed: 1,
		Workers: 1, Spans: tr})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		f.Fatal(err)
	}
	trace := buf.Bytes()
	f.Add(trace)
	f.Add(trace[:len(trace)/2])
	for _, swap := range [][2]string{
		{`"pid":`, `"pid":"`},
		{`"ph":"X"`, `"ph":"Q"`},
		{`"ts":`, `"ts":-`},
		{`"name":`, `"name":7,"was":`},
	} {
		f.Add(bytes.Replace(trace, []byte(swap[0]), []byte(swap[1]), 1))
	}
	f.Add([]byte(`[{"name":"x","ph":"M","pid":0,"tid":0}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected input counted %d events", n)
			}
			return
		}
		var events []json.RawMessage
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("accepted input is not a JSON array: %v", err)
		}
		if n != len(events) {
			t.Fatalf("accepted input counted %d events, its array holds %d", n, len(events))
		}
	})
}
