package spec_test

import (
	"encoding/json"
	"errors"
	"testing"

	"vprobe/internal/experiments"
	"vprobe/internal/numa"
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

// clusterDocs mirror the cluster specs whose output testdata/cluster
// pins (a policy, a mix, the control plane, the diurnal, flash and trace
// processes) plus a machine document as vprobe-topo -json prints it.
var clusterDocs = []string{
	`{"hosts":2,"policy":"pack","seed":9,"horizon":"45s"}`,
	`{"hosts":2,"mix":"server","seed":3,"horizon":"30s"}`,
	`{"hosts":2,"seed":5,"arrivals_per_second":0.8,"mean_lifetime":"150s","horizon":"90s",
	  "preempt":true,"gang":true,"gang_fraction":0.2,"backfill":true,"deschedule_period":"15s"}`,
	`{"hosts":2,"seed":5,"arrivals_per_second":0.6,"horizon":"60s","arrival_process":"diurnal"}`,
	`{"hosts":2,"seed":5,"horizon":"60s","rebalance_period":"-5s","arrival_process":"flash","flash_factor":6}`,
	`{"hosts":2,"seed":7,"horizon":"40s","preempt":true,"arrival_process":"trace","arrival_trace":[
	  {"at":"1s","memory_mb":2048,"vcpus":2,"lifetime":"20s","profiles":["mcf","lu"]},
	  {"at":"2s","memory_mb":1024,"vcpus":1,"priority":2,"group":"g","lifetime":"30s","profiles":["memcached:64"]},
	  {"at":"2s","memory_mb":1024,"vcpus":1,"priority":2,"group":"g","lifetime":"30s"}]}`,
	`{"hosts":3,"trace":true,"machine":{"name":"edited three-node","nodes":3,"cpusPerNode":4,
	  "memoryPerNodeMB":8192,"imcBandwidthGBs":20,"llcSizeKB":8192,"clockGHz":2.4,
	  "localMemLatencyNS":70,"remoteMemLatencyNS":150,"llcHitLatencyNS":15,
	  "linkBandwidthGTs":5.86,"linksPerPair":1}}`,
}

// FuzzClusterSpec feeds outside input through the cluster front door —
// decode, Validate, Normalize and Key, Config — without running it.
// Validation failures must wrap the spec sentinels; a valid spec must
// keep its key across a normalized round trip and lower to its own host
// count and a machine numa.New builds. The corpus holds every paper
// cluster cell's document plus clusterDocs.
func FuzzClusterSpec(f *testing.F) {
	for _, e := range experiments.All() {
		for _, c := range e.Cells(experiments.Options{}) {
			if s, ok := c.Spec.(spec.ClusterV1); ok {
				doc, err := json.Marshal(s.Normalize())
				if err != nil {
					f.Fatal(err)
				}
				f.Add(doc)
			}
		}
	}
	for _, doc := range clusterDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var c spec.ClusterV1
		if json.Unmarshal(doc, &c) != nil {
			return
		}
		if err := c.Validate(); err != nil {
			if !errors.Is(err, spec.ErrInvalid) && !errors.Is(err, spec.ErrVersion) {
				t.Fatalf("Validate error %v wraps no spec sentinel", err)
			}
			return
		}
		n := c.Normalize()
		back, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var again spec.ClusterV1
		if err := json.Unmarshal(back, &again); err != nil || again.Key() != c.Key() {
			t.Fatalf("normalized round trip: key %s vs %s (err %v)", again.Key(), c.Key(), err)
		}
		cfg := c.Config()
		if cfg.Hosts != n.Hosts {
			t.Fatalf("lowered %d hosts, spec has %d", cfg.Hosts, n.Hosts)
		}
		if _, err := numa.New(cfg.Topology); err != nil {
			t.Fatalf("valid spec lowers to a machine numa rejects: %v", err)
		}
	})
}
