package spec_test

import (
	"encoding/json"
	"errors"
	"testing"

	"vprobe/internal/experiments"
	"vprobe/internal/spec"
)

// servedScenarios are the scenario specs vprobe-serve's own checks POST:
// the served-run golden's and the serve smoke script's.
var servedScenarios = []string{
	`{"version": "v1", "scheduler": "vprobe", "seed": 7, "horizon": "500ms",
	  "vms": [{"name": "vm1", "memory_mb": 4096, "vcpus": 4, "memory": "stripe",
	           "fill_guest_idle": true, "apps": [{"name": "soplex"}, {"name": "mcf"}]},
	          {"name": "vm2", "memory_mb": 2048, "vcpus": 4,
	           "apps": [{"name": "milc"}, {"name": "lu"}]}]}`,
	`{"scheduler":"vprobe","horizon":"2s","vms":[{"name":"vm0","memory_mb":2048,"vcpus":2,"apps":[{"name":"soplex"},{"name":"mcf"}]}]}`,
}

// FuzzScenarioSpec feeds outside input through the scenario front door —
// decode, Validate, lower — without running it. Validation failures must
// wrap the spec sentinels, a valid spec must lower without panicking, and
// the lowered hypervisor must hold the spec's VMs and watch list. The
// corpus holds every paper cell's scenario document (what vprobe-sim
// -spec prints) plus the served specs.
func FuzzScenarioSpec(f *testing.F) {
	seen := map[string]bool{}
	for _, e := range experiments.All() {
		for _, c := range e.Cells(experiments.Options{}) {
			s, ok := c.Spec.(spec.ScenarioV1)
			if !ok || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			doc, err := json.Marshal(s.Normalize())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(doc)
		}
	}
	for _, doc := range servedScenarios {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var s spec.ScenarioV1
		if json.Unmarshal(doc, &s) != nil {
			return
		}
		if err := s.Validate(); err != nil {
			if !errors.Is(err, spec.ErrInvalid) && !errors.Is(err, spec.ErrVersion) {
				t.Fatalf("Validate error %v wraps no spec sentinel", err)
			}
			return
		}
		h, err := s.Hypervisor()
		if err != nil {
			return // a valid spec may still not fit the machine's memory
		}
		n := s.Normalize()
		if len(h.Domains) != len(n.VMs) || len(h.Watched()) != len(n.Watch) {
			t.Fatalf("lowered %d domains watching %d, spec has %d VMs watching %d",
				len(h.Domains), len(h.Watched()), len(n.VMs), len(n.Watch))
		}
		back, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var again spec.ScenarioV1
		if err := json.Unmarshal(back, &again); err != nil || again.Key() != s.Key() {
			t.Fatalf("normalized round trip: key %s vs %s (err %v)", again.Key(), s.Key(), err)
		}
	})
}
