package spec_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

// TestDurationOutOfRange pins the seconds form's range check: a number of
// seconds whose nanoseconds overflow int64 fails to decode with ErrInvalid
// naming the value, instead of wrapping to a value the client never sent.
func TestDurationOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		into any
		body string
	}{
		{"horizon", &spec.ScenarioV1{}, `{"horizon": 1e12}`},
		{"rebalance_period", &spec.ClusterV1{}, `{"rebalance_period": 1e12}`},
		{"negative", &spec.ClusterV1{}, `{"mean_lifetime": -1e12}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := json.Unmarshal([]byte(tc.body), tc.into)
			if !errors.Is(err, spec.ErrInvalid) || !strings.Contains(err.Error(), "1e+12") {
				t.Fatalf("decode %s: err = %v, want ErrInvalid naming 1e+12", tc.body, err)
			}
		})
	}
	var d spec.Duration
	if err := json.Unmarshal([]byte(`9e9`), &d); err != nil || d.Std() != 9e9*time.Second {
		t.Fatalf("in-range seconds: %v, %v", d.Std(), err)
	}
}

// lowerable is a valid scenario exercising every lowered field.
func lowerable() spec.ScenarioV1 {
	return spec.ScenarioV1{
		Scheduler:  "vprobe",
		Bounds:     &spec.BoundsV1{Low: 2, High: 30},
		NoAffinity: true,
		Scale:      0.5,
		VMs: []spec.VMV1{
			{Name: "solo", MemoryMB: 1024, VCPUs: 2, Memory: "local",
				Apps: []spec.AppV1{{Name: "lu"}}, Pin: []int{3}},
			{Name: "srv", MemoryMB: 2048, VCPUs: 3, FillGuestIdle: true,
				Apps: []spec.AppV1{{Server: "memcached", Load: 16, Requests: 1000}, {Name: "hungry"}}},
		},
		Watch: []string{"solo"},
	}
}

// TestScenarioNewFieldsInvalid asserts each new field's bad values fail
// validation, and the lowering, with ErrInvalid.
func TestScenarioNewFieldsInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*spec.ScenarioV1)
	}{
		{"pin-range", func(s *spec.ScenarioV1) { s.VMs[0].Pin = []int{8} }},
		{"pin-negative", func(s *spec.ScenarioV1) { s.VMs[0].Pin = []int{-1} }},
		{"pin-four-node-range", func(s *spec.ScenarioV1) { s.Topology = "four-node"; s.VMs[0].Pin = []int{16} }},
		{"pin-longer-than-vcpus", func(s *spec.ScenarioV1) { s.VMs[0].Pin = []int{0, 1, 2} }},
		{"watch-unknown", func(s *spec.ScenarioV1) { s.Watch = []string{"nobody"} }},
		{"watch-repeat", func(s *spec.ScenarioV1) { s.Watch = []string{"solo", "solo"} }},
		{"bounds-equal", func(s *spec.ScenarioV1) { s.Bounds = &spec.BoundsV1{Low: 5, High: 5} }},
		{"bounds-inverted", func(s *spec.ScenarioV1) { s.Bounds = &spec.BoundsV1{Low: 20, High: 3} }},
		{"bounds-zero-low", func(s *spec.ScenarioV1) { s.Bounds = &spec.BoundsV1{High: 3} }},
		{"bounds-negative", func(s *spec.ScenarioV1) { s.Bounds = &spec.BoundsV1{Low: -3, High: 20} }},
		{"scale-negative", func(s *spec.ScenarioV1) { s.Scale = -1 }},
		{"requests-named", func(s *spec.ScenarioV1) { s.VMs[0].Apps[0].Requests = 10 }},
		{"requests-redis", func(s *spec.ScenarioV1) {
			s.VMs[1].Apps[0] = spec.AppV1{Server: "redis", Load: 2000, Requests: 10}
		}},
		{"requests-negative", func(s *spec.ScenarioV1) { s.VMs[1].Apps[0].Requests = -1 }},
		{"memory", func(s *spec.ScenarioV1) { s.VMs[0].Memory = "nearest" }},
		{"vcpus-total", func(s *spec.ScenarioV1) { s.VMs[1].VCPUs = 1 << 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := lowerable()
			tc.edit(&s)
			if err := s.Validate(); !errors.Is(err, spec.ErrInvalid) {
				t.Fatalf("Validate = %v, want ErrInvalid", err)
			}
			if _, err := s.Hypervisor(); !errors.Is(err, spec.ErrInvalid) {
				t.Fatalf("Hypervisor = %v, want ErrInvalid", err)
			}
		})
	}
	if err := lowerable().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestClusterLLCPressureLimit covers the cluster field: default, lowering
// and rejection of negative limits.
func TestClusterLLCPressureLimit(t *testing.T) {
	if got := (spec.ClusterV1{}).Config().LLCPressureLimit; got != 50 {
		t.Errorf("default llc_pressure_limit lowers to %v, want 50", got)
	}
	if got := (spec.ClusterV1{LLCPressureLimit: 25}).Config().LLCPressureLimit; got != 25 {
		t.Errorf("llc_pressure_limit 25 lowers to %v", got)
	}
	if err := (spec.ClusterV1{LLCPressureLimit: -1}).Validate(); !errors.Is(err, spec.ErrInvalid) {
		t.Errorf("negative llc_pressure_limit: err = %v, want ErrInvalid", err)
	}
}

// TestScenarioDefaultsNewFields pins the new fields' explicit defaults:
// scale 1, stock vProbe bounds, every VM watched.
func TestScenarioDefaultsNewFields(t *testing.T) {
	n := spec.ScenarioV1{VMs: []spec.VMV1{{Name: "a"}, {Name: "b"}}}.Normalize()
	stock := sched.NewVProbe().Analyzer.Bounds
	if n.Scale != 1 || n.Bounds == nil || n.Bounds.Low != stock.Low || n.Bounds.High != stock.High {
		t.Errorf("scale/bounds default to %v/%+v", n.Scale, n.Bounds)
	}
	if strings.Join(n.Watch, ",") != "a,b" {
		t.Errorf("watch defaults to %v, want every VM", n.Watch)
	}
	s := lowerable()
	n = s.Normalize()
	n.Bounds.Low = 1
	n.VMs[0].Pin[0] = 0
	n.Watch[0] = "srv"
	if s.Bounds.Low != 2 || s.VMs[0].Pin[0] != 3 || s.Watch[0] != "solo" {
		t.Error("Normalize shares bounds, pins or watch with its receiver")
	}
}

// TestScenarioLowering checks the hypervisor Hypervisor builds against the
// spec: policy settings, memory placement, apps with requests and scale,
// guest-idle fill, pins and the watch list.
func TestScenarioLowering(t *testing.T) {
	h, err := lowerable().Hypervisor()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := h.Policy.(*sched.VProbe)
	if !ok || !v.DisableAffinity || v.Analyzer.Bounds.Low != 2 || v.Analyzer.Bounds.High != 30 {
		t.Errorf("policy = %+v, want vProbe without affinity at bounds (2, 30)", h.Policy)
	}
	if len(h.Domains) != 2 {
		t.Fatalf("%d domains, want 2", len(h.Domains))
	}
	solo, srv := h.Domains[0], h.Domains[1]
	if solo.MemDist[0] != 1 {
		t.Errorf("local memory spread %v, want all on node 0", solo.MemDist)
	}
	lu := workload.LU()
	if got := solo.VCPUs[0].App.TotalInstructions; got != lu.TotalInstructions*0.5 {
		t.Errorf("lu at scale 0.5 runs %v instructions, want %v", got, lu.TotalInstructions*0.5)
	}
	if solo.VCPUs[0].PinnedPCPU != numa.CPUID(3) || solo.VCPUs[1].PinnedPCPU != -1 || solo.VCPUs[1].App != nil {
		t.Errorf("solo vcpus pinned %d/%d, second app %v", solo.VCPUs[0].PinnedPCPU, solo.VCPUs[1].PinnedPCPU, solo.VCPUs[1].App)
	}
	mc := workload.Memcached(16)
	if got := srv.VCPUs[0].App.TotalInstructions; got != 1000*mc.InstrPerRequest*0.5 {
		t.Errorf("memcached with 1000 requests runs %v instructions", got)
	}
	if got := srv.VCPUs[1].App.TotalInstructions; got != workload.Hungry().TotalInstructions {
		t.Errorf("endless hungry loop scaled to %v instructions", got)
	}
	if srv.VCPUs[2].App == nil || srv.VCPUs[2].App.Name != "guest-idle" {
		t.Errorf("spare srv vcpu runs %v, want guest-idle fill", srv.VCPUs[2].App)
	}
	if w := h.Watched(); len(w) != 1 || w[0] != solo {
		t.Errorf("watched %v, want [solo]", w)
	}
}
