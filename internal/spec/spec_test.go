package spec_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// TestScenarioNormalizeDefaults asserts every defaulted field becomes
// explicit and normalization is idempotent.
func TestScenarioNormalizeDefaults(t *testing.T) {
	s := spec.ScenarioV1{VMs: []spec.VMV1{{Name: "vm", MemoryMB: 1024, VCPUs: 1}}}
	n := s.Normalize()
	if n.Version != spec.VersionV1 {
		t.Errorf("Version = %q, want %q", n.Version, spec.VersionV1)
	}
	if n.Scheduler != "credit" || n.Topology != "xeon-e5620" || n.Seed != 1 {
		t.Errorf("defaults = %q/%q/%d, want credit/xeon-e5620/1", n.Scheduler, n.Topology, n.Seed)
	}
	if n.Horizon.Std() != 30*time.Second || n.SamplePeriod.Std() != time.Second {
		t.Errorf("horizon/sample = %v/%v", n.Horizon.Std(), n.SamplePeriod.Std())
	}
	if n.VMs[0].Memory != "fill" {
		t.Errorf("vm memory = %q, want fill", n.VMs[0].Memory)
	}
	if again := n.Normalize(); !jsonEqual(t, again, n) {
		t.Error("Normalize is not idempotent")
	}
	if s.VMs[0].Memory != "" {
		t.Error("Normalize mutated its receiver's VM slice")
	}
}

// TestClusterNormalizeDefaults covers the cluster form, including the
// canonicalization of "rebalancing disabled".
func TestClusterNormalizeDefaults(t *testing.T) {
	n := spec.ClusterV1{}.Normalize()
	if n.Hosts != 4 || n.Policy != "numa" || n.Mix != "mixed" || n.Seed != 1 {
		t.Errorf("defaults = %d/%q/%q/%d", n.Hosts, n.Policy, n.Mix, n.Seed)
	}
	if n.ArrivalsPerSecond != 0.35 || n.MeanLifetime.Std() != 60*time.Second ||
		n.Horizon.Std() != 300*time.Second || n.RebalancePeriod.Std() != 10*time.Second {
		t.Errorf("rate/lifetime/horizon/rebalance = %v/%v/%v/%v",
			n.ArrivalsPerSecond, n.MeanLifetime.Std(), n.Horizon.Std(), n.RebalancePeriod.Std())
	}
	a := spec.ClusterV1{RebalancePeriod: spec.Duration(-3 * time.Minute)}
	b := spec.ClusterV1{RebalancePeriod: spec.Duration(-time.Millisecond)}
	if a.Key() != b.Key() {
		t.Error("two disabled-rebalance specs should share a canonical key")
	}
	// Control-plane defaults: gangs default to size 3 once the stream draws
	// them; without gangs the size stays unset and the descheduler off.
	if g := (spec.ClusterV1{GangFraction: 0.2}).Normalize(); g.GangSize != 3 {
		t.Errorf("gang_size with gangs drawn = %d, want 3", g.GangSize)
	}
	if n.GangSize != 0 || n.DeschedulePeriod != 0 || n.Preempt || n.Gang || n.Backfill {
		t.Error("control-plane mechanisms must default off")
	}
}

// TestValidateErrors walks the validation failures and asserts each wraps
// the right sentinel.
func TestValidateErrors(t *testing.T) {
	vm := spec.VMV1{Name: "vm", MemoryMB: 1024, VCPUs: 2}
	cases := []struct {
		name string
		s    spec.ScenarioV1
		want error
	}{
		{"version", spec.ScenarioV1{Version: "v9", VMs: []spec.VMV1{vm}}, spec.ErrVersion},
		{"topology", spec.ScenarioV1{Topology: "toaster", VMs: []spec.VMV1{vm}}, spec.ErrInvalid},
		{"scheduler", spec.ScenarioV1{Scheduler: "fifo", VMs: []spec.VMV1{vm}}, spec.ErrInvalid},
		{"no vms", spec.ScenarioV1{}, spec.ErrInvalid},
		{"negative horizon", spec.ScenarioV1{Horizon: spec.Duration(-time.Second), VMs: []spec.VMV1{vm}}, spec.ErrInvalid},
		{"vm name", spec.ScenarioV1{VMs: []spec.VMV1{{MemoryMB: 1, VCPUs: 1}}}, spec.ErrInvalid},
		{"dup vm", spec.ScenarioV1{VMs: []spec.VMV1{vm, vm}}, spec.ErrInvalid},
		{"memory_mb", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", VCPUs: 1}}}, spec.ErrInvalid},
		{"memory policy", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", MemoryMB: 1, VCPUs: 1, Memory: "shuffle"}}}, spec.ErrInvalid},
		{"unknown app", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", MemoryMB: 1, VCPUs: 1,
			Apps: []spec.AppV1{{Name: "doom"}}}}}, spec.ErrInvalid},
		{"both app forms", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", MemoryMB: 1, VCPUs: 1,
			Apps: []spec.AppV1{{Name: "soplex", Server: "redis", Load: 1}}}}}, spec.ErrInvalid},
		{"server load", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", MemoryMB: 1, VCPUs: 1,
			Apps: []spec.AppV1{{Server: "redis"}}}}}, spec.ErrInvalid},
		{"too many apps", spec.ScenarioV1{VMs: []spec.VMV1{{Name: "x", MemoryMB: 1, VCPUs: 1,
			Apps: []spec.AppV1{{Name: "hungry"}, {Name: "hungry"}}}}}, spec.ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}

	good := spec.ScenarioV1{VMs: []spec.VMV1{{Name: "vm", MemoryMB: 2048, VCPUs: 2,
		Apps: []spec.AppV1{{Name: "soplex"}, {Server: "memcached", Load: 64}}}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestValidateMemoryFits checks that Validate refuses VMs whose memory
// sums past the machine's, naming the first VM that overflows, so every
// accepted scenario lowers; a running sum that meets the machine's memory
// exactly is accepted and lowers.
func TestValidateMemoryFits(t *testing.T) {
	total := numa.Presets["xeon-e5620"]().TotalMemoryMB()
	vm := func(name string, mb int64) spec.VMV1 { return spec.VMV1{Name: name, MemoryMB: mb, VCPUs: 1} }
	for _, tc := range []struct {
		name string
		vms  []spec.VMV1
		bad  string // the VM the error must name; "" when the spec fits
	}{
		{"one vm too large", []spec.VMV1{vm("vm1", 100000000)}, "vm1"},
		{"two halves too large", []spec.VMV1{vm("a", 20000), vm("b", 20000)}, "b"},
		{"sum past int64", []spec.VMV1{vm("a", total), vm("b", math.MaxInt64)}, "b"},
		{"later vm past the first overflow", []spec.VMV1{vm("a", 1), vm("b", total), vm("c", math.MaxInt64)}, "b"},
		{"exact fit", []spec.VMV1{vm("a", total-1024), vm("b", 1024)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec.ScenarioV1{VMs: tc.vms}
			err := s.Validate()
			if tc.bad == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if _, err := s.Hypervisor(); err != nil {
					t.Fatalf("accepted spec does not lower: %v", err)
				}
				return
			}
			if !errors.Is(err, spec.ErrInvalid) || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
				t.Fatalf("Validate() = %v, want ErrInvalid naming %q", err, tc.bad)
			}
		})
	}
}

// TestClusterValidateErrors covers the cluster-side failures.
func TestClusterValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		c    spec.ClusterV1
		want error
	}{
		{"version", spec.ClusterV1{Version: "v0"}, spec.ErrVersion},
		{"hosts", spec.ClusterV1{Hosts: -1}, spec.ErrInvalid},
		{"topology", spec.ClusterV1{Topology: "toaster"}, spec.ErrInvalid},
		{"scheduler", spec.ClusterV1{Scheduler: "fifo"}, spec.ErrInvalid},
		{"policy", spec.ClusterV1{Policy: "chaos"}, spec.ErrInvalid},
		{"mix", spec.ClusterV1{Mix: "spicy"}, spec.ErrInvalid},
		{"workers", spec.ClusterV1{Workers: -2}, spec.ErrInvalid},
		{"lifetime", spec.ClusterV1{MeanLifetime: spec.Duration(-time.Second)}, spec.ErrInvalid},
		{"gang-fraction-low", spec.ClusterV1{GangFraction: -0.1}, spec.ErrInvalid},
		{"gang-fraction-high", spec.ClusterV1{GangFraction: 1.5}, spec.ErrInvalid},
		{"gang-size", spec.ClusterV1{GangFraction: 0.2, GangSize: -1}, spec.ErrInvalid},
		{"gang-without-fraction", spec.ClusterV1{Gang: true}, spec.ErrInvalid},
		{"deschedule", spec.ClusterV1{DeschedulePeriod: spec.Duration(-time.Second)}, spec.ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
	if err := (spec.ClusterV1{}).Validate(); err != nil {
		t.Fatalf("default cluster spec rejected: %v", err)
	}
}

// TestClusterValidateBounds covers the size caps and the non-finite
// floats: each case alone would otherwise build or run without bound.
// The largest in-repo shapes (a thousand hosts, a custom machine) pass.
func TestClusterValidateBounds(t *testing.T) {
	machine := func(edit func(*numa.Config)) *numa.Config {
		m := numa.Export(numa.XeonE5620())
		edit(&m)
		return &m
	}
	nan, inf := math.NaN(), math.Inf(1)
	horizon := spec.Duration(30 * time.Second)
	cases := []struct {
		name string
		c    spec.ClusterV1
		msg  string
	}{
		{"hosts-huge", spec.ClusterV1{Hosts: 100_000_000}, "hosts"},
		{"hosts-over-cap", spec.ClusterV1{Hosts: 4097}, "hosts"},
		{"rate-huge", spec.ClusterV1{Hosts: 2, Horizon: horizon, ArrivalsPerSecond: 1e308}, "offers"},
		{"rate-inf", spec.ClusterV1{ArrivalsPerSecond: inf}, "arrivals_per_second"},
		{"rate-nan", spec.ClusterV1{ArrivalsPerSecond: nan}, "arrivals_per_second"},
		{"rate-over-cap", spec.ClusterV1{ArrivalsPerSecond: 1e4, Horizon: spec.Duration(time.Hour)}, "offers"},
		{"flash-over-cap", spec.ClusterV1{ArrivalProcess: "flash", ArrivalsPerSecond: 100,
			Horizon: horizon, FlashFactor: 1e6}, "offers"},
		{"gangs-over-cap", spec.ClusterV1{ArrivalsPerSecond: 10, Horizon: spec.Duration(time.Hour),
			GangFraction: 0.5, GangSize: 1000}, "offers"},
		{"llc-limit-inf", spec.ClusterV1{LLCPressureLimit: inf}, "llc_pressure_limit"},
		{"gang-fraction-nan", spec.ClusterV1{GangFraction: nan}, "gang_fraction"},
		{"gang-size-huge", spec.ClusterV1{GangFraction: 0.1, GangSize: 1 << 30}, "gang_size"},
		{"diurnal-amplitude-nan", spec.ClusterV1{ArrivalProcess: "diurnal", DiurnalAmplitude: nan}, "diurnal_amplitude"},
		{"flash-factor-inf", spec.ClusterV1{ArrivalProcess: "flash", FlashFactor: inf}, "flash_factor"},
		{"machine-and-topology", spec.ClusterV1{Topology: "four-node",
			Machine: machine(func(*numa.Config) {})}, "mutually exclusive"},
		{"machine-nodes", spec.ClusterV1{Machine: machine(func(m *numa.Config) { m.Nodes = 1000 })}, "Nodes = 1000"},
		{"machine-pcpus", spec.ClusterV1{Machine: machine(func(m *numa.Config) { m.CPUsPerNode = 1 << 20 })}, "at most 1024 CPUs"},
		{"machine-links", spec.ClusterV1{Machine: machine(func(m *numa.Config) { m.LinksPerPair = 1 << 30 })}, "LinksPerPair"},
		{"machine-clock-nan", spec.ClusterV1{Machine: machine(func(m *numa.Config) { m.ClockGHz = nan })}, "NaN or infinite"},
		{"machine-numa-rule", spec.ClusterV1{Machine: machine(func(m *numa.Config) { m.RemoteMemLatencyNS = 1 })}, "RemoteMemLatencyNS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if !errors.Is(err, spec.ErrInvalid) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("Validate() = %v, want ErrInvalid naming %q", err, tc.msg)
			}
		})
	}

	for _, ok := range []spec.ClusterV1{
		{Hosts: 1000, Horizon: spec.Duration(20 * time.Second), ArrivalsPerSecond: 20,
			Gang: true, GangFraction: 0.2, Backfill: true, Preempt: true},
		{Hosts: 1024, Horizon: spec.Duration(20 * time.Second), ArrivalsPerSecond: 100},
		{Topology: "xeon-e5620", Machine: machine(func(m *numa.Config) { m.Nodes = 4 })},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("in-range spec rejected: %v", err)
		}
	}
}

// TestJSONRoundTrip asserts encode→decode is lossless and that the
// canonical key is stable across the trip and across default omission.
func TestJSONRoundTrip(t *testing.T) {
	s := spec.ScenarioV1{
		Scheduler: "vprobe",
		Seed:      7,
		Horizon:   spec.Duration(1500 * time.Millisecond),
		VMs: []spec.VMV1{
			{Name: "a", MemoryMB: 4096, VCPUs: 2, Memory: "stripe",
				Apps: []spec.AppV1{{Name: "soplex"}, {Server: "redis", Load: 4000}}},
			{Name: "b", MemoryMB: 1024, VCPUs: 1, FillGuestIdle: true},
		},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"horizon":"1.5s"`) {
		t.Fatalf("durations should marshal as Go strings, got %s", data)
	}
	var back spec.ScenarioV1
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !jsonEqual(t, back, s) {
		t.Fatalf("round trip changed the spec:\n  in:  %+v\n  out: %+v", s, back)
	}
	if back.Key() != s.Key() {
		t.Error("round trip changed the canonical key")
	}
	explicit := s.Normalize()
	if explicit.Key() != s.Key() {
		t.Error("spelling out defaults changed the canonical key")
	}
	if changed := s; true {
		changed.Seed = 8
		if changed.Key() == s.Key() {
			t.Error("seed change did not change the key")
		}
	}
}

// TestClusterKeyIgnoresWorkers pins the cache contract: parallelism never
// affects results, so it must not affect the key.
func TestClusterKeyIgnoresWorkers(t *testing.T) {
	base := spec.ClusterV1{Hosts: 2, Seed: 5}
	w8 := base
	w8.Workers = 8
	if base.Key() != w8.Key() {
		t.Error("Workers changed the cluster key")
	}
	other := base
	other.Policy = "pack"
	if other.Key() == base.Key() {
		t.Error("policy change did not change the key")
	}
}

// TestDurationJSON covers both accepted wire forms and the error path.
func TestDurationJSON(t *testing.T) {
	var d spec.Duration
	if err := json.Unmarshal([]byte(`"2m30s"`), &d); err != nil || d.Std() != 150*time.Second {
		t.Fatalf("string form: %v, %v", d.Std(), err)
	}
	if err := json.Unmarshal([]byte(`1.5`), &d); err != nil || d.Std() != 1500*time.Millisecond {
		t.Fatalf("number form: %v, %v", d.Std(), err)
	}
	err := json.Unmarshal([]byte(`"fortnight"`), &d)
	if !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("bad duration error = %v, want ErrInvalid", err)
	}
}

// TestCatalogLists sanity-checks the advertised name lists against the
// registries they mirror.
func TestCatalogLists(t *testing.T) {
	for _, want := range []string{"xeon-e5620", "four-node", "uma"} {
		if !contains(spec.Topologies(), want) {
			t.Errorf("Topologies() missing %q", want)
		}
	}
	for _, want := range []string{"credit", "vprobe", "brm"} {
		if !contains(spec.Schedulers(), want) {
			t.Errorf("Schedulers() missing %q", want)
		}
	}
	for _, want := range []string{"numa", "pack", "spread"} {
		if !contains(spec.Policies(), want) {
			t.Errorf("Policies() missing %q", want)
		}
	}
	if !contains(spec.Apps(), "soplex") {
		t.Error("Apps() missing soplex")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// jsonEqual compares two values by their canonical JSON.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	da, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(da) == string(db)
}

// TestClusterArrivalNormalize pins the per-process arrival defaults:
// they fill only for the selected process, and the zero spec is Poisson.
func TestClusterArrivalNormalize(t *testing.T) {
	n := spec.ClusterV1{}.Normalize()
	if n.ArrivalProcess != "poisson" {
		t.Fatalf("default arrival_process %q", n.ArrivalProcess)
	}
	if n.DiurnalPeriod != 0 || n.DiurnalAmplitude != 0 || n.FlashFactor != 0 {
		t.Fatal("poisson normalization filled another process's defaults")
	}
	d := spec.ClusterV1{ArrivalProcess: "diurnal"}.Normalize()
	if d.DiurnalPeriod != d.Horizon || d.DiurnalAmplitude != 0.6 {
		t.Fatalf("diurnal defaults: period %v amplitude %v",
			d.DiurnalPeriod.Std(), d.DiurnalAmplitude)
	}
	f := spec.ClusterV1{ArrivalProcess: "flash"}.Normalize()
	if f.FlashFactor != 8 || f.FlashDuration != f.Horizon/10 || f.FlashAt != f.Horizon/3 {
		t.Fatalf("flash defaults: factor %v duration %v at %v",
			f.FlashFactor, f.FlashDuration.Std(), f.FlashAt.Std())
	}
	// Normalize must deep-copy the trace so the canonical value cannot
	// alias caller-held slices.
	trace := []spec.ArrivalV1{{At: 0, MemoryMB: 1024, VCPUs: 1,
		Lifetime: spec.Duration(time.Second), Profiles: []string{"mcf"}}}
	tn := spec.ClusterV1{ArrivalProcess: "trace", ArrivalTrace: trace}.Normalize()
	trace[0].Profiles[0] = "soplex"
	if tn.ArrivalTrace[0].Profiles[0] != "mcf" {
		t.Fatal("normalized trace aliases the caller's profile slice")
	}
}

// TestClusterArrivalValidateErrors covers the arrival-side rejection
// paths; each must wrap ErrInvalid and name the field.
func TestClusterArrivalValidateErrors(t *testing.T) {
	rec := spec.ArrivalV1{At: 0, MemoryMB: 1024, VCPUs: 1, Lifetime: spec.Duration(time.Second)}
	cases := []struct {
		name string
		c    spec.ClusterV1
		path string // substring the error must name
	}{
		{"process", spec.ClusterV1{ArrivalProcess: "bursty"}, "arrival_process"},
		{"diurnal-period", spec.ClusterV1{ArrivalProcess: "diurnal",
			DiurnalPeriod: spec.Duration(-time.Second)}, "diurnal_period"},
		{"amplitude", spec.ClusterV1{ArrivalProcess: "diurnal",
			DiurnalAmplitude: 1.5}, "diurnal_amplitude"},
		{"flash-at", spec.ClusterV1{ArrivalProcess: "flash",
			FlashAt: spec.Duration(-time.Second)}, "flash_at"},
		{"flash-factor", spec.ClusterV1{ArrivalProcess: "flash",
			FlashFactor: 0.5}, "flash_factor"},
		{"empty-trace", spec.ClusterV1{ArrivalProcess: "trace"}, "non-empty arrival_trace"},
		{"priority", spec.ClusterV1{ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{func() spec.ArrivalV1 { r := rec; r.Priority = 3; return r }()}},
			"arrival_trace[0].priority"},
		{"lifetime", spec.ClusterV1{ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{func() spec.ArrivalV1 { r := rec; r.Lifetime = 0; return r }()}},
			"arrival_trace[0].lifetime"},
		{"record", spec.ClusterV1{ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{func() spec.ArrivalV1 { r := rec; r.MemoryMB = 0; return r }()}},
			"arrival_trace[0]"},
		{"profile", spec.ClusterV1{ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{func() spec.ArrivalV1 { r := rec; r.Profiles = []string{"doom"}; return r }()}},
			"arrival_trace[0]"},
		{"unsorted", spec.ClusterV1{ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{
				func() spec.ArrivalV1 { r := rec; r.At = spec.Duration(5 * time.Second); return r }(),
				func() spec.ArrivalV1 { r := rec; r.At = spec.Duration(2 * time.Second); return r }()}},
			"precedes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if !errors.Is(err, spec.ErrInvalid) {
				t.Fatalf("Validate() = %v, want ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.path)
			}
		})
	}
	good := spec.ClusterV1{ArrivalProcess: "trace", ArrivalTrace: []spec.ArrivalV1{rec}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace spec rejected: %v", err)
	}
}

// TestClusterKeyArrivalFields pins the cache-key contract: arrival
// parameters shape results so they must move the key; PlaceCheck only
// verifies results so it must not.
func TestClusterKeyArrivalFields(t *testing.T) {
	base := spec.ClusterV1{Hosts: 2, Seed: 5}
	pc := base
	pc.PlaceCheck = true
	if base.Key() != pc.Key() {
		t.Error("place_check changed the cluster key")
	}
	variants := map[string]spec.ClusterV1{
		"process":   {Hosts: 2, Seed: 5, ArrivalProcess: "diurnal"},
		"amplitude": {Hosts: 2, Seed: 5, ArrivalProcess: "diurnal", DiurnalAmplitude: 0.3},
		"flash":     {Hosts: 2, Seed: 5, ArrivalProcess: "flash", FlashFactor: 4},
		"trace": {Hosts: 2, Seed: 5, ArrivalProcess: "trace",
			ArrivalTrace: []spec.ArrivalV1{{At: 0, MemoryMB: 1024, VCPUs: 1,
				Lifetime: spec.Duration(time.Second)}}},
	}
	seen := map[string]string{"base": base.Key()}
	for name, v := range variants {
		k := v.Key()
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("%s and %s share a key", name, prev)
			}
		}
		seen[name] = k
	}
}

// TestClusterConfigLowering pins ClusterV1.Config field by field: the
// defaults come from Normalize (the seed included, since span IDs derive
// from it), durations become simulated microseconds, a negative
// rebalance_period becomes the cluster's disabled value, and the arrival
// trace is lowered record by record. A preset lowers to its exported
// machine description, and a machine document to itself.
func TestClusterConfigLowering(t *testing.T) {
	d := spec.ClusterV1{}.Config()
	if d.Hosts != 4 || d.Topology != numa.Export(numa.XeonE5620()) || d.Scheduler != "credit" ||
		d.Policy != "numa" || d.Seed != 1 || d.Mix != "mixed" ||
		d.Arrival.Process != "poisson" || d.RebalancePeriod != 10*sim.Second ||
		d.Horizon != 300*sim.Second || d.MeanLifetime != 60*sim.Second {
		t.Errorf("default spec lowers to %+v", d)
	}

	s := spec.ClusterV1{
		Hosts: 3, Topology: "four-node", Scheduler: "vprobe", Policy: "pack", Seed: 9,
		ArrivalsPerSecond: 0.5, MeanLifetime: spec.Duration(90 * time.Second),
		Horizon: spec.Duration(45 * time.Second), Workers: 2, Mix: "batch",
		RebalancePeriod: spec.Duration(-3 * time.Second),
		Preempt:         true, Gang: true, GangFraction: 0.25, Backfill: true,
		DeschedulePeriod: spec.Duration(7 * time.Second), PlaceCheck: true,
		ArrivalProcess: "trace",
		ArrivalTrace: []spec.ArrivalV1{{At: spec.Duration(1500 * time.Millisecond),
			MemoryMB: 2048, VCPUs: 2, Priority: 2, Group: "g", Lifetime: spec.Duration(time.Minute),
			Profiles: []string{"mcf"}}},
	}
	c := s.Config()
	if c.Hosts != 3 || c.Topology != numa.Export(numa.FourNode()) || c.Scheduler != "vprobe" || c.Policy != "pack" ||
		c.Seed != 9 || c.ArrivalsPerSecond != 0.5 || c.MeanLifetime != 90*sim.Second ||
		c.Horizon != 45*sim.Second || c.Workers != 2 || c.Mix != "batch" ||
		!c.Preempt || !c.Gang || c.GangFraction != 0.25 || c.GangSize != 3 || !c.Backfill ||
		c.DeschedulePeriod != 7*sim.Second || !c.PlaceCheck || c.Arrival.Process != "trace" {
		t.Errorf("spec lowers to %+v", c)
	}
	if c.RebalancePeriod != -1 {
		t.Errorf("negative rebalance_period lowers to %v, want -1", c.RebalancePeriod)
	}
	want := cluster.TraceArrival{AtUS: 1_500_000, MemoryMB: 2048, VCPUs: 2, Priority: 2,
		Group: "g", LifeUS: 60_000_000, Profiles: []string{"mcf"}}
	if len(c.Arrival.Trace) != 1 || fmt.Sprint(c.Arrival.Trace[0]) != fmt.Sprint(want) {
		t.Errorf("arrival trace lowers to %+v, want [%+v]", c.Arrival.Trace, want)
	}

	m := numa.Export(numa.SingleNode())
	m.Name = "edited"
	if got := (spec.ClusterV1{Machine: &m}).Config().Topology; got != m {
		t.Errorf("machine lowers to %+v, want %+v", got, m)
	}

	f := spec.ClusterV1{ArrivalProcess: "flash", Horizon: spec.Duration(30 * time.Second)}.Config()
	if f.Arrival.FlashAt != 10*sim.Second || f.Arrival.FlashDuration != 3*sim.Second ||
		f.Arrival.FlashFactor != 8 {
		t.Errorf("flash defaults lower to %+v", f.Arrival)
	}
}
