// Package spec defines the serializable, versioned request types of the
// public simulation API: plain-data descriptions of a single-host scenario
// (ScenarioV1) and a multi-host cluster run (ClusterV1) that survive a JSON
// round trip byte-for-byte and carry no live state — no callbacks, no
// channels, no attached collectors. Each has one lowering here:
// ScenarioV1.Hypervisor builds the unstarted hypervisor, and
// ClusterV1.Config is the one copy of spec fields into cluster.Config.
// Two callers lower them: the root package's CompileScenario and
// RunCluster (behind vprobe-serve, vprobe-sim -spec, vprobe-cluster, the
// examples and the public API), which add the live
// hooks (Events, Telemetry, Spans, Arrivals) a spec cannot carry, and
// internal/experiments, whose every paper cell is one of these specs.
// Every single-host run is a ScenarioV1, and outside the benchmark module
// every cluster run is a ClusterV1.
//
// Every spec type obeys three contracts:
//
//   - Versioned: the Version field names the schema ("v1"); unknown
//     versions fail validation with ErrVersion, so old servers reject new
//     specs loudly instead of silently dropping fields.
//   - Explicit defaults: Normalize fills every defaulted field with its
//     concrete value, so a normalized spec is self-describing and two
//     specs that mean the same run have identical normalized forms.
//   - Checked: Validate returns errors wrapping ErrInvalid (field-level
//     failures) or ErrVersion, with the offending field path in the
//     message, for errors.Is-based handling and HTTP status mapping.
//
// Key returns the canonical cache key of a spec: a SHA-256 over the
// normalized JSON with the execution-only Workers field zeroed. Because
// every simulation in this repository is deterministic — same spec and
// seed, same bytes out, at every worker count — the key identifies the
// result, not just the request, and completed runs are perfectly
// cacheable. See DESIGN.md §11 for the cache-key contract.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// VersionV1 is the schema version of ScenarioV1 and ClusterV1.
const VersionV1 = "v1"

// defaultTopology is the machine preset both spec types default to: the
// paper's Table I box.
const defaultTopology = "xeon-e5620"

// Sentinel errors, wrapped by Validate and the compat helpers, for
// errors.Is matching (and the HTTP status table in internal/serve).
var (
	// ErrVersion: the spec's Version names no supported schema.
	ErrVersion = errors.New("spec: unsupported version")
	// ErrInvalid: a field value fails validation; the message carries the
	// field path and the accepted values.
	ErrInvalid = errors.New("spec: invalid field")
)

// Duration is a time.Duration that marshals to the Go duration string
// ("1.5s", "300ms") instead of integer nanoseconds, keeping specs human
// writable and the canonical form stable. It unmarshals from either a
// duration string or a JSON number of seconds.
type Duration time.Duration

// MarshalJSON renders the Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90s"-style strings and bare numbers (seconds).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("%w: duration %q: %v", ErrInvalid, s, err) //vet:nowrap parse detail only; ErrInvalid carries the chain
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("%w: duration must be a string like \"90s\" or a number of seconds", ErrInvalid)
	}
	// Converting an out-of-range float to an integer is
	// platform-defined in Go, so reject it rather than let it wrap.
	ns := secs * float64(time.Second)
	if ns >= math.MaxInt64 || ns < math.MinInt64 {
		return fmt.Errorf("%w: duration %v seconds is outside the representable range (about ±292 years)", ErrInvalid, secs)
	}
	*d = Duration(time.Duration(ns))
	return nil
}

// String renders the Go duration string.
func (d Duration) String() string { return time.Duration(d).String() }

// Set parses a Go duration string, so a *Duration is a flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	*d = Duration(v)
	return err
}

// Std returns the standard-library value.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Sim returns the value in simulated microseconds.
func (d Duration) Sim() sim.Duration { return sim.Duration(d.Std().Microseconds()) }

// AppV1 describes one application instance on a VM's next free VCPU.
// Exactly one of Name (a catalog workload: "soplex", "lu", "hungry", ...)
// or Server (a request-driven server: "memcached", "redis") is set; Load
// is the server's client concurrency (memcached) or connection count
// (redis) and must be positive for servers. Requests gives a memcached
// server a finite request target, so it completes like a batch app;
// without it a server runs to the horizon.
type AppV1 struct {
	Name     string `json:"name,omitempty"`
	Server   string `json:"server,omitempty"`
	Load     int    `json:"load,omitempty"`
	Requests int    `json:"requests,omitempty"`
}

// VMV1 describes one virtual machine of a scenario.
type VMV1 struct {
	Name     string `json:"name"`
	MemoryMB int64  `json:"memory_mb"`
	VCPUs    int    `json:"vcpus"`
	// Memory is the placement policy: "fill" (default), "stripe", or
	// "local" (all on node 0).
	Memory string `json:"memory,omitempty"`
	// FillGuestIdle attaches housekeeping bursts to VCPUs without apps.
	FillGuestIdle bool `json:"fill_guest_idle,omitempty"`
	// Apps run on the VM's first VCPUs in order.
	Apps []AppV1 `json:"apps,omitempty"`
	// Pin hard-pins VCPU i to PCPU Pin[i]; VCPUs past the list float.
	Pin []int `json:"pin,omitempty"`
}

// BoundsV1 are Eq. 3's classification bounds on LLC references per
// thousand instructions: below Low is LLC-FR, from High on LLC-T.
type BoundsV1 struct {
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// ScenarioV1 is the serializable form of a single-host simulation: the
// machine, the policy and its settings, the VM population, and when the
// run stops. Hypervisor lowers it. The run ends at the horizon or as soon
// as every finite app of the watched VMs has completed, whichever comes
// first.
type ScenarioV1 struct {
	// Version is the schema version; empty means VersionV1.
	//vet:spec version dispatch happens inside spec (Normalize/Validate); the compile layer only ever sees validated v1 values
	Version string `json:"version"`
	// Scheduler is the policy under test (default "credit").
	Scheduler string `json:"scheduler,omitempty"`
	// Topology is the machine preset (default "xeon-e5620").
	Topology string `json:"topology,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// SamplePeriod overrides vProbe-family sampling (default 1s).
	SamplePeriod Duration `json:"sample_period,omitempty"`
	// Bounds overrides vProbe-family classification (default: the
	// stock vProbe bounds).
	Bounds *BoundsV1 `json:"bounds,omitempty"`
	// NoAffinity erases Eq. 1's memory node affinity from Algorithm 1
	// (the affinity ablation).
	NoAffinity bool `json:"no_affinity,omitempty"`
	// DynamicBounds enables the §VI adaptive-bounds extension.
	DynamicBounds bool `json:"dynamic_bounds,omitempty"`
	// PageMigration enables the §VI page-migration extension.
	PageMigration bool `json:"page_migration,omitempty"`
	// Scale multiplies every finite app's instruction count (default 1);
	// endless apps (hungry loops, servers without requests) keep theirs.
	Scale float64 `json:"scale,omitempty"`
	// Horizon caps the simulated duration (default 30s).
	Horizon Duration `json:"horizon,omitempty"`
	// VMs is the virtual machine population (at least one).
	VMs []VMV1 `json:"vms"`
	// Watch names the VMs whose finite apps end the run once all have
	// completed (default: every VM).
	Watch []string `json:"watch,omitempty"`
	// Trace records the run's span flight recorder (domain lifecycle
	// spans). Diagnostic only: results are byte-identical with tracing on
	// or off, so — like place_check on clusters — it is zeroed out of the
	// canonical Key. TraceLimit caps recorded spans (0 = the default cap)
	// and requires Trace.
	Trace      bool `json:"trace,omitempty"`
	TraceLimit int  `json:"trace_limit,omitempty"`
}

// ClusterV1 is the serializable form of a multi-host cluster run: the
// plain-data subset of cluster.Config that Config lowers it onto.
type ClusterV1 struct {
	// Version is the schema version; empty means VersionV1.
	//vet:spec version dispatch happens inside spec (Normalize/Validate); the compile layer only ever sees validated v1 values
	Version string `json:"version"`
	// Hosts is the number of simulated hosts (default 4).
	Hosts int `json:"hosts,omitempty"`
	// Topology is the per-host NUMA preset (default "xeon-e5620").
	Topology string `json:"topology,omitempty"`
	// Machine describes the per-host machine in the schema vprobe-topo
	// -json prints, for a machine no preset covers. It is mutually
	// exclusive with a non-default Topology; a normalized spec with a
	// machine has no topology.
	Machine *numa.Config `json:"machine,omitempty"`
	// Scheduler is the per-host VCPU scheduler (default "credit").
	Scheduler string `json:"scheduler,omitempty"`
	// Policy is the placement policy (default "numa").
	Policy string `json:"policy,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// ArrivalsPerSecond is the Poisson VM arrival rate (default 0.35).
	ArrivalsPerSecond float64 `json:"arrivals_per_second,omitempty"`
	// MeanLifetime is the mean exponential VM lifetime (default 60s).
	MeanLifetime Duration `json:"mean_lifetime,omitempty"`
	// Horizon is the simulated duration (default 300s).
	Horizon Duration `json:"horizon,omitempty"`
	// Workers bounds host-advance parallelism (0 = GOMAXPROCS). Results
	// are byte-identical at every worker count, so Workers is excluded
	// from the canonical Key.
	Workers int `json:"workers,omitempty"`
	// Mix selects the workload mix: "mixed" (default), "batch", "server".
	Mix string `json:"mix,omitempty"`
	// RebalancePeriod is the inter-host rebalancer tick (default 10s; a
	// negative duration disables rebalancing).
	RebalancePeriod Duration `json:"rebalance_period,omitempty"`
	// LLCPressureLimit is the per-socket LLC pressure sum above which the
	// rebalancer migrates VMs off a host (default 50).
	LLCPressureLimit float64 `json:"llc_pressure_limit,omitempty"`
	// Preempt lets arrivals above best-effort evict strictly-lower-priority
	// VMs when no host fits (default off).
	Preempt bool `json:"preempt,omitempty"`
	// Gang admits multi-VM groups all-or-nothing (default off).
	Gang bool `json:"gang,omitempty"`
	// GangFraction is the fraction of arrivals that form gangs, in [0, 1].
	// The arrival stream draws gangs whenever the fraction is positive, so
	// toggling Gang compares mechanisms at equal load.
	GangFraction float64 `json:"gang_fraction,omitempty"`
	// GangSize is the number of VMs per gang (default 3 when gangs are
	// drawn).
	GangSize int `json:"gang_size,omitempty"`
	// Backfill lets small low-priority VMs jump the queue into holes that
	// cannot delay the blocked head (default off).
	Backfill bool `json:"backfill,omitempty"`
	// DeschedulePeriod is the defragmentation pass tick; zero disables the
	// descheduler (the default).
	DeschedulePeriod Duration `json:"deschedule_period,omitempty"`
	// ArrivalProcess selects the arrival generator: "poisson" (default),
	// "diurnal", "flash", or "trace".
	ArrivalProcess string `json:"arrival_process,omitempty"`
	// DiurnalPeriod is the diurnal sinusoid's period (default: the
	// horizon) and DiurnalAmplitude its swing in [0, 1] around
	// ArrivalsPerSecond (default 0.6). Both normalize to their concrete
	// values only when ArrivalProcess is "diurnal".
	DiurnalPeriod    Duration `json:"diurnal_period,omitempty"`
	DiurnalAmplitude float64  `json:"diurnal_amplitude,omitempty"`
	// FlashAt starts a flash-crowd window of FlashDuration during which
	// the rate multiplies by FlashFactor (defaults: horizon/3,
	// horizon/10, 8). Normalized only when ArrivalProcess is "flash".
	FlashAt       Duration `json:"flash_at,omitempty"`
	FlashDuration Duration `json:"flash_duration,omitempty"`
	FlashFactor   float64  `json:"flash_factor,omitempty"`
	// ArrivalTrace is the recorded stream the "trace" process replays,
	// sorted by at. Consecutive records sharing a non-empty group and the
	// same at arrive together as one gang.
	ArrivalTrace []ArrivalV1 `json:"arrival_trace,omitempty"`
	// PlaceCheck cross-validates every placement of the incremental
	// engine against a full rescan, failing the run on the first
	// divergence. Diagnostic only: results are byte-identical either way,
	// so — like Workers — it is zeroed out of the canonical Key.
	PlaceCheck bool `json:"place_check,omitempty"`
	// Trace records the placement flight recorder: VM lifecycle spans with
	// per-plugin placement provenance, migration/preemption/gang/backfill
	// chains. Diagnostic only (results are byte-identical with tracing on
	// or off), so it is zeroed out of the canonical Key like Workers and
	// PlaceCheck. TraceLimit caps recorded spans (0 = the default cap) and
	// requires Trace.
	Trace      bool `json:"trace,omitempty"`
	TraceLimit int  `json:"trace_limit,omitempty"`
}

// ArrivalV1 is one recorded VM arrival of a ClusterV1 arrival trace:
// when the request arrives, the VM's shape and priority class, its
// lifetime once placed, and the workloads on its VCPUs.
type ArrivalV1 struct {
	At       Duration `json:"at"`
	MemoryMB int64    `json:"memory_mb"`
	VCPUs    int      `json:"vcpus"`
	// Priority is the admission class: 0 best-effort (default),
	// 1 standard, 2 critical.
	Priority int `json:"priority,omitempty"`
	// Group gangs consecutive same-instant records together.
	//vet:spec any string is a valid gang label; gang assembly itself is a runtime concern
	Group    string   `json:"group,omitempty"`
	Lifetime Duration `json:"lifetime"`
	// Profiles are per-VCPU workload references: a catalog name ("mcf"),
	// "memcached:<clients>", or "redis:<connections>"; VCPUs beyond the
	// list idle.
	Profiles []string `json:"profiles,omitempty"`
}

// internal lowers one record onto the cluster trace schema, so Validate
// enforces exactly the per-record rules the runtime does.
func (a ArrivalV1) internal() cluster.TraceArrival {
	return cluster.TraceArrival{
		AtUS:     a.At.Std().Microseconds(),
		MemoryMB: a.MemoryMB,
		VCPUs:    a.VCPUs,
		Priority: a.Priority,
		Group:    a.Group,
		LifeUS:   a.Lifetime.Std().Microseconds(),
		Profiles: a.Profiles,
	}
}

// ReadArrivalTrace decodes a JSONL arrival trace — the records a cluster
// run's arrival export writes, with integer-microsecond times — into
// ArrivalTrace records. The conversion is lossless: lowering a record
// gives back the line it was read from. An empty profile list reads as
// none, as WriteTrace writes it.
func ReadArrivalTrace(r io.Reader) ([]ArrivalV1, error) {
	recs, err := cluster.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	const maxUS = math.MaxInt64 / int64(time.Microsecond)
	out := make([]ArrivalV1, len(recs))
	for i, rec := range recs {
		if max(rec.AtUS, rec.LifeUS) > maxUS || min(rec.AtUS, rec.LifeUS) < -maxUS {
			return nil, fmt.Errorf("%w: arrival trace record %d: at_us %d / life_us %d outside the representable range",
				ErrInvalid, i, rec.AtUS, rec.LifeUS)
		}
		if len(rec.Profiles) == 0 {
			rec.Profiles = nil
		}
		out[i] = ArrivalV1{At: Duration(rec.AtUS) * Duration(time.Microsecond), MemoryMB: rec.MemoryMB,
			VCPUs: rec.VCPUs, Priority: rec.Priority, Group: rec.Group,
			Lifetime: Duration(rec.LifeUS) * Duration(time.Microsecond), Profiles: rec.Profiles}
	}
	return out, nil
}

// Config lowers the spec onto the runtime cluster configuration. It is
// the one place a ClusterV1 field becomes a cluster.Config field. The
// spec is normalized first, so the seed and every other default are
// concrete; callers run Validate before running the result, and attach
// the live hooks (Events, Telemetry, Spans) themselves.
func (c ClusterV1) Config() cluster.Config {
	n := c.Normalize()
	cfg := cluster.Config{
		Hosts:             n.Hosts,
		Topology:          n.machine(),
		Scheduler:         sched.Kind(n.Scheduler),
		Policy:            n.Policy,
		Seed:              n.Seed,
		ArrivalsPerSecond: n.ArrivalsPerSecond,
		MeanLifetime:      n.MeanLifetime.Sim(),
		Horizon:           n.Horizon.Sim(),
		Workers:           n.Workers,
		Mix:               n.Mix,
		RebalancePeriod:   n.RebalancePeriod.Sim(),
		LLCPressureLimit:  n.LLCPressureLimit,
		Preempt:           n.Preempt,
		Gang:              n.Gang,
		GangFraction:      n.GangFraction,
		GangSize:          n.GangSize,
		Backfill:          n.Backfill,
		DeschedulePeriod:  n.DeschedulePeriod.Sim(),
		PlaceCheck:        n.PlaceCheck,
		Arrival: cluster.ArrivalConfig{
			Process:          n.ArrivalProcess,
			DiurnalPeriod:    n.DiurnalPeriod.Sim(),
			DiurnalAmplitude: n.DiurnalAmplitude,
			FlashAt:          n.FlashAt.Sim(),
			FlashDuration:    n.FlashDuration.Sim(),
			FlashFactor:      n.FlashFactor,
		},
	}
	if n.RebalancePeriod < 0 {
		cfg.RebalancePeriod = -1 // the cluster's disabled value
	}
	for _, rec := range n.ArrivalTrace {
		cfg.Arrival.Trace = append(cfg.Arrival.Trace, rec.internal())
	}
	return cfg
}

// machine is the per-host machine description: the spec's machine
// document, or its topology preset exported to the same schema (the
// export round trip rebuilds a preset exactly). An unknown preset lowers
// to a description numa.New rejects, so cluster.New fails on it.
func (c ClusterV1) machine() numa.Config {
	if c.Machine != nil {
		return *c.Machine
	}
	if mk, ok := numa.Presets[c.Topology]; ok {
		return numa.Export(mk())
	}
	return numa.Config{Name: c.Topology}
}

// Hypervisor lowers the scenario onto an unstarted hypervisor. It is the
// one place a ScenarioV1 field becomes simulation state. It validates the
// spec (failures wrap ErrVersion or ErrInvalid), builds the policy from
// the scheduler settings, and then, in spec order, creates every VM,
// attaches each VM's apps (finite ones scaled) and guest-idle fill and
// applies its pins, and sets the watch list. Callers attach the live hooks
// (events, telemetry, spans) themselves before starting it.
func (s ScenarioV1) Hypervisor() (*xen.Hypervisor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalize()
	pol, err := sched.Build(sched.Kind(n.Scheduler), sched.Settings{
		SamplePeriod: n.SamplePeriod.Sim(),
		Bounds:       core.Bounds{Low: n.Bounds.Low, High: n.Bounds.High},
		NoAffinity:   n.NoAffinity,
		Dynamic:      n.DynamicBounds,
	})
	if err != nil {
		return nil, err
	}
	cfg := xen.DefaultConfig()
	cfg.Seed = n.Seed
	h := xen.New(numa.Presets[n.Topology](), pol, cfg)
	if n.PageMigration {
		h.Migrator = mem.DefaultMigrator()
	}
	byName := make(map[string]*xen.Domain, len(n.VMs))
	for i, vm := range n.VMs {
		d, err := h.CreateDomain(vm.Name, vm.MemoryMB, vm.VCPUs, memoryPolicies[vm.Memory])
		if err != nil {
			return nil, fmt.Errorf("spec: vms[%d] %q: %w", i, vm.Name, err)
		}
		byName[vm.Name] = d
	}
	for i, vm := range n.VMs {
		d := h.Domains[i]
		for j, app := range vm.Apps {
			p, err := app.Profile(n.Scale)
			if err == nil {
				_, err = h.AttachApp(d, j, p)
			}
			if err != nil {
				return nil, fmt.Errorf("spec: vms[%d].apps[%d]: %w", i, j, err)
			}
		}
		for j := len(vm.Apps); vm.FillGuestIdle && j < vm.VCPUs; j++ {
			if _, err := h.AttachApp(d, j, workload.GuestIdle()); err != nil {
				return nil, fmt.Errorf("spec: vms[%d] guest-idle fill: %w", i, err)
			}
		}
		for j, cpu := range vm.Pin {
			if err := h.Pin(d.VCPUs[j], numa.CPUID(cpu)); err != nil {
				return nil, fmt.Errorf("spec: vms[%d].pin[%d]: %w", i, j, err)
			}
		}
	}
	watch := make([]*xen.Domain, len(n.Watch))
	for i, name := range n.Watch {
		watch[i] = byName[name]
	}
	h.WatchDomains(watch...)
	return h, nil
}

// Profile builds the workload profile of one app of a scenario run at
// scale: its request target applied, then its instruction count scaled
// unless it is endless.
func (a AppV1) Profile(scale float64) (*workload.Profile, error) {
	ref := workload.Ref{Name: a.Name, Load: a.Load}
	if a.Server != "" {
		ref.Name = a.Server
	}
	p, err := ref.Profile()
	if err != nil {
		return nil, err
	}
	if a.Requests > 0 {
		p.TotalInstructions = float64(a.Requests) * p.InstrPerRequest
	}
	if !p.Endless() {
		p.TotalInstructions *= scale
	}
	return p, nil
}

// ArrivalProcesses lists the arrival generators a ClusterV1 accepts,
// sorted.
func ArrivalProcesses() []string { return cluster.ArrivalProcesses() }

// Mixes lists the workload mixes a ClusterV1 accepts, sorted.
func Mixes() []string { return []string{"batch", "mixed", "server"} }

// memoryPolicies maps the VMV1.Memory values to their placement policies.
var memoryPolicies = map[string]mem.Policy{
	"fill": mem.PolicyFill, "local": mem.PolicyLocal, "stripe": mem.PolicyStripe,
}

// Topologies lists the machine presets, sorted.
func Topologies() []string { return numa.PresetNames() }

// Schedulers lists the scheduling policies, sorted.
func Schedulers() []string {
	kinds := sched.Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return names
}

// Policies lists the cluster placement policies, sorted.
func Policies() []string { return cluster.Policies() }

// Apps lists the catalog workloads an AppV1.Name may select, sorted.
func Apps() []string {
	return workload.Names(workload.Catalog())
}

// Normalize returns a copy with every defaulted field set to its concrete
// value, so equivalent specs share one canonical form.
func (s ScenarioV1) Normalize() ScenarioV1 {
	if s.Version == "" {
		s.Version = VersionV1
	}
	if s.Scheduler == "" {
		s.Scheduler = string(sched.KindCredit)
	}
	if s.Topology == "" {
		s.Topology = defaultTopology
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SamplePeriod == 0 {
		s.SamplePeriod = Duration(time.Second)
	}
	b := BoundsV1{Low: stockBounds.Low, High: stockBounds.High}
	if s.Bounds != nil {
		b = *s.Bounds
	}
	s.Bounds = &b
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Horizon == 0 {
		s.Horizon = Duration(30 * time.Second)
	}
	vms := make([]VMV1, len(s.VMs))
	for i, vm := range s.VMs {
		if vm.Memory == "" {
			vm.Memory = "fill"
		}
		vm.Apps = append([]AppV1(nil), vm.Apps...)
		vm.Pin = append([]int(nil), vm.Pin...)
		vms[i] = vm
	}
	s.VMs = vms
	watch := append(make([]string, 0, max(len(s.Watch), len(vms))), s.Watch...)
	for i := 0; len(s.Watch) == 0 && i < len(vms); i++ {
		watch = append(watch, vms[i].Name)
	}
	s.Watch = watch
	return s
}

// stockBounds are the classification bounds of a stock vProbe policy,
// ScenarioV1.Bounds' default.
var stockBounds = sched.NewVProbe().Analyzer.Bounds

// maxVCPUs caps a scenario's total VCPU count, so a spec cannot make
// lowering allocate without bound.
const maxVCPUs = 4096

// Validate checks a scenario; failures wrap ErrVersion or ErrInvalid.
// Validation is defined on the normalized form: Validate normalizes
// internally, so callers may pass either form.
func (s ScenarioV1) Validate() error {
	if s.Version != "" && s.Version != VersionV1 {
		return fmt.Errorf("%w: %q (have %s)", ErrVersion, s.Version, VersionV1)
	}
	n := s.Normalize()
	if _, ok := numa.Presets[n.Topology]; !ok {
		return fmt.Errorf("%w: topology %q (have %s)",
			ErrInvalid, n.Topology, strings.Join(Topologies(), ", "))
	}
	if !knownScheduler(n.Scheduler) {
		return fmt.Errorf("%w: scheduler %q (have %s)",
			ErrInvalid, n.Scheduler, strings.Join(Schedulers(), ", "))
	}
	if n.SamplePeriod < 0 {
		return fmt.Errorf("%w: sample_period %v must not be negative", ErrInvalid, n.SamplePeriod.Std())
	}
	if b := n.Bounds; !(b.Low > 0 && b.Low < b.High) {
		return fmt.Errorf("%w: bounds (low %v, high %v) need 0 < low < high", ErrInvalid, b.Low, b.High)
	}
	if !(n.Scale > 0) {
		return fmt.Errorf("%w: scale %v must be positive", ErrInvalid, n.Scale)
	}
	if n.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %v must be positive", ErrInvalid, n.Horizon.Std())
	}
	if len(n.VMs) == 0 {
		return fmt.Errorf("%w: vms must list at least one VM", ErrInvalid)
	}
	if err := validateTrace(n.Trace, n.TraceLimit); err != nil {
		return err
	}
	seen := make(map[string]bool, len(n.VMs))
	vcpus := 0
	top := numa.Presets[n.Topology]()
	// freeMB is the memory the VMs so far leave free: lowering allocates
	// each VM in order from an allocator that starts with all of it.
	freeMB := top.TotalMemoryMB()
	for i, vm := range n.VMs {
		path := fmt.Sprintf("vms[%d]", i)
		if vm.Name == "" {
			return fmt.Errorf("%w: %s.name must be set", ErrInvalid, path)
		}
		if seen[vm.Name] {
			return fmt.Errorf("%w: %s.name %q repeats an earlier VM", ErrInvalid, path, vm.Name)
		}
		seen[vm.Name] = true
		if vm.MemoryMB <= 0 {
			return fmt.Errorf("%w: %s.memory_mb %d must be positive", ErrInvalid, path, vm.MemoryMB)
		}
		if vm.MemoryMB > freeMB {
			return fmt.Errorf("%w: %s %q: memory_mb %d exceeds the %d MB that %s (%d MB in all) has free after the VMs before it",
				ErrInvalid, path, vm.Name, vm.MemoryMB, freeMB, n.Topology, top.TotalMemoryMB())
		}
		freeMB -= vm.MemoryMB
		if vm.VCPUs <= 0 {
			return fmt.Errorf("%w: %s.vcpus %d must be positive", ErrInvalid, path, vm.VCPUs)
		}
		if vcpus += vm.VCPUs; vcpus > maxVCPUs {
			return fmt.Errorf("%w: vms declare more than %d vcpus in total", ErrInvalid, maxVCPUs)
		}
		if _, ok := memoryPolicies[vm.Memory]; !ok {
			return fmt.Errorf("%w: %s.memory %q (have fill, local, stripe)", ErrInvalid, path, vm.Memory)
		}
		if len(vm.Apps) > vm.VCPUs {
			return fmt.Errorf("%w: %s lists %d apps for %d vcpus",
				ErrInvalid, path, len(vm.Apps), vm.VCPUs)
		}
		for j, app := range vm.Apps {
			if err := app.validate(fmt.Sprintf("%s.apps[%d]", path, j)); err != nil {
				return err
			}
		}
		if len(vm.Pin) > vm.VCPUs {
			return fmt.Errorf("%w: %s.pin lists %d pcpus for %d vcpus",
				ErrInvalid, path, len(vm.Pin), vm.VCPUs)
		}
		for j, cpu := range vm.Pin {
			if cpus := top.NumCPUs(); cpu < 0 || cpu >= cpus {
				return fmt.Errorf("%w: %s.pin[%d] %d is outside %s's pcpus [0, %d)",
					ErrInvalid, path, j, cpu, n.Topology, cpus)
			}
		}
	}
	for i, name := range n.Watch {
		if !seen[name] {
			return fmt.Errorf("%w: watch[%d] %q names no VM, or one listed before", ErrInvalid, i, name)
		}
		delete(seen, name)
	}
	return nil
}

// validate checks one app reference.
func (a AppV1) validate(path string) error {
	if a.Requests < 0 || (a.Requests > 0 && a.Server != "memcached") {
		return fmt.Errorf("%w: %s.requests %d: a request target must be positive and applies to memcached servers only",
			ErrInvalid, path, a.Requests)
	}
	switch {
	case a.Name != "" && a.Server != "":
		return fmt.Errorf("%w: %s sets both name and server", ErrInvalid, path)
	case a.Name != "":
		if a.Load != 0 {
			return fmt.Errorf("%w: %s.load only applies to servers", ErrInvalid, path)
		}
		if _, err := workload.ByName(a.Name); err != nil {
			return fmt.Errorf("%w: %s.name %q (have %s)",
				ErrInvalid, path, a.Name, strings.Join(Apps(), ", "))
		}
		return nil
	case a.Server != "":
		if a.Server != "memcached" && a.Server != "redis" {
			return fmt.Errorf("%w: %s.server %q (have memcached, redis)", ErrInvalid, path, a.Server)
		}
		if a.Load <= 0 {
			return fmt.Errorf("%w: %s.load %d must be positive for servers", ErrInvalid, path, a.Load)
		}
		return nil
	default:
		return fmt.Errorf("%w: %s must set name or server", ErrInvalid, path)
	}
}

// Normalize returns a copy with every defaulted field set to its concrete
// value.
func (c ClusterV1) Normalize() ClusterV1 {
	if c.Version == "" {
		c.Version = VersionV1
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.Machine != nil {
		m := *c.Machine
		c.Machine = &m
		c.Topology = ""
	} else if c.Topology == "" {
		c.Topology = defaultTopology
	}
	if c.Scheduler == "" {
		c.Scheduler = string(sched.KindCredit)
	}
	if c.Policy == "" {
		c.Policy = "numa"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ArrivalsPerSecond == 0 {
		c.ArrivalsPerSecond = 0.35
	}
	if c.MeanLifetime == 0 {
		c.MeanLifetime = Duration(60 * time.Second)
	}
	if c.Horizon == 0 {
		c.Horizon = Duration(300 * time.Second)
	}
	if c.Mix == "" {
		c.Mix = "mixed"
	}
	if c.RebalancePeriod == 0 {
		c.RebalancePeriod = Duration(10 * time.Second)
	} else if c.RebalancePeriod < 0 {
		// All disabled values share one canonical form.
		c.RebalancePeriod = Duration(-time.Second)
	}
	if c.LLCPressureLimit == 0 {
		c.LLCPressureLimit = cluster.DefaultLLCPressureLimit
	}
	if c.GangFraction > 0 && c.GangSize == 0 {
		c.GangSize = 3
	}
	if c.ArrivalProcess == "" {
		c.ArrivalProcess = "poisson"
	}
	// Per-generator defaults become concrete only for the selected
	// process, mirroring cluster.ArrivalConfig.normalized — a spec that
	// switches process must not inherit another generator's shape.
	switch c.ArrivalProcess {
	case "diurnal":
		if c.DiurnalPeriod == 0 {
			c.DiurnalPeriod = c.Horizon
		}
		if c.DiurnalAmplitude == 0 {
			c.DiurnalAmplitude = 0.6
		}
	case "flash":
		if c.FlashFactor == 0 {
			c.FlashFactor = 8
		}
		if c.FlashDuration == 0 {
			c.FlashDuration = c.Horizon / 10
		}
		if c.FlashAt == 0 {
			c.FlashAt = c.Horizon / 3
		}
	}
	c.ArrivalTrace = append([]ArrivalV1(nil), c.ArrivalTrace...)
	for i := range c.ArrivalTrace {
		c.ArrivalTrace[i].Profiles = append([]string(nil), c.ArrivalTrace[i].Profiles...)
	}
	return c
}

// Cluster size caps, so a spec cannot make lowering or the run allocate
// without bound: hosts bound what cluster.New builds (numa caps each
// host's machine), gang size and offered VMs what the run admits.
const (
	maxHosts      = 4096
	maxGangSize   = 1024
	maxOfferedVMs = 1 << 20
)

// Validate checks a cluster spec; failures wrap ErrVersion or ErrInvalid.
func (c ClusterV1) Validate() error {
	if c.Version != "" && c.Version != VersionV1 {
		return fmt.Errorf("%w: %q (have %s)", ErrVersion, c.Version, VersionV1)
	}
	if c.Machine != nil && c.Topology != "" && c.Topology != defaultTopology {
		return fmt.Errorf("%w: machine and topology %q are mutually exclusive", ErrInvalid, c.Topology)
	}
	n := c.Normalize()
	if n.Hosts < 1 || n.Hosts > maxHosts {
		return fmt.Errorf("%w: hosts %d must be in [1, %d]", ErrInvalid, n.Hosts, maxHosts)
	}
	if n.Machine != nil {
		// numa's rules include the caps on nodes, PCPUs and links that
		// keep building the machine bounded.
		if err := n.Machine.Validate(); err != nil {
			return fmt.Errorf("%w: machine: %v", ErrInvalid, err) //vet:nowrap numa's rule text only; ErrInvalid carries the chain
		}
	} else if _, ok := numa.Presets[n.Topology]; !ok {
		return fmt.Errorf("%w: topology %q (have %s)",
			ErrInvalid, n.Topology, strings.Join(Topologies(), ", "))
	}
	if !knownScheduler(n.Scheduler) {
		return fmt.Errorf("%w: scheduler %q (have %s)",
			ErrInvalid, n.Scheduler, strings.Join(Schedulers(), ", "))
	}
	if !knownPolicy(n.Policy) {
		return fmt.Errorf("%w: policy %q (have %s)",
			ErrInvalid, n.Policy, strings.Join(Policies(), ", "))
	}
	// The float checks are written so NaN fails them too.
	if !(n.ArrivalsPerSecond >= 0) || math.IsInf(n.ArrivalsPerSecond, 1) {
		return fmt.Errorf("%w: arrivals_per_second %v must be finite and not negative", ErrInvalid, n.ArrivalsPerSecond)
	}
	if n.MeanLifetime <= 0 {
		return fmt.Errorf("%w: mean_lifetime %v must be positive", ErrInvalid, n.MeanLifetime.Std())
	}
	if n.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %v must be positive", ErrInvalid, n.Horizon.Std())
	}
	if n.Workers < 0 {
		return fmt.Errorf("%w: workers %d must not be negative", ErrInvalid, n.Workers)
	}
	if n.Mix != "mixed" && n.Mix != "batch" && n.Mix != "server" {
		return fmt.Errorf("%w: mix %q (have %s)", ErrInvalid, n.Mix, strings.Join(Mixes(), ", "))
	}
	if !(n.LLCPressureLimit > 0) || math.IsInf(n.LLCPressureLimit, 1) {
		return fmt.Errorf("%w: llc_pressure_limit %v must be finite and positive", ErrInvalid, n.LLCPressureLimit)
	}
	if !(n.GangFraction >= 0 && n.GangFraction <= 1) {
		return fmt.Errorf("%w: gang_fraction %v must be in [0, 1]", ErrInvalid, n.GangFraction)
	}
	if n.GangSize < 0 || n.GangSize > maxGangSize {
		return fmt.Errorf("%w: gang_size %d must be in [0, %d]", ErrInvalid, n.GangSize, maxGangSize)
	}
	if n.Gang && n.GangFraction == 0 {
		return fmt.Errorf("%w: gang requires a positive gang_fraction", ErrInvalid)
	}
	if n.DeschedulePeriod < 0 {
		return fmt.Errorf("%w: deschedule_period %v must not be negative", ErrInvalid, n.DeschedulePeriod.Std())
	}
	if !knownArrivalProcess(n.ArrivalProcess) {
		return fmt.Errorf("%w: arrival_process %q (have %s)",
			ErrInvalid, n.ArrivalProcess, strings.Join(ArrivalProcesses(), ", "))
	}
	if n.DiurnalPeriod < 0 {
		return fmt.Errorf("%w: diurnal_period %v must not be negative", ErrInvalid, n.DiurnalPeriod.Std())
	}
	if !(n.DiurnalAmplitude >= 0 && n.DiurnalAmplitude <= 1) {
		return fmt.Errorf("%w: diurnal_amplitude %v must be in [0, 1]", ErrInvalid, n.DiurnalAmplitude)
	}
	if n.FlashAt < 0 || n.FlashDuration < 0 {
		return fmt.Errorf("%w: flash_at %v / flash_duration %v must not be negative",
			ErrInvalid, n.FlashAt.Std(), n.FlashDuration.Std())
	}
	if !(n.FlashFactor >= 0) || math.IsInf(n.FlashFactor, 1) || (n.ArrivalProcess == "flash" && n.FlashFactor < 1) {
		return fmt.Errorf("%w: flash_factor %v must be finite and at least 1", ErrInvalid, n.FlashFactor)
	}
	// The generator offers at most the peak rate (the diurnal or flash
	// peak) over the whole horizon, times the VMs per gang.
	offered := n.ArrivalsPerSecond * max(1+n.DiurnalAmplitude, n.FlashFactor) *
		n.Horizon.Std().Seconds() * float64(max(n.GangSize, 1))
	if !(offered <= maxOfferedVMs) {
		return fmt.Errorf("%w: arrivals_per_second %v over horizon %v offers about %.3g VMs, more than %d",
			ErrInvalid, n.ArrivalsPerSecond, n.Horizon.Std(), offered, maxOfferedVMs)
	}
	if err := validateTrace(n.Trace, n.TraceLimit); err != nil {
		return err
	}
	if n.ArrivalProcess == "trace" && len(n.ArrivalTrace) == 0 {
		return fmt.Errorf("%w: arrival_process \"trace\" needs a non-empty arrival_trace", ErrInvalid)
	}
	for i, rec := range n.ArrivalTrace {
		// Spec-level field paths for the two fields whose runtime message
		// would not name them; everything else delegates to the shared
		// record rules.
		if rec.Priority < 0 || rec.Priority > 2 {
			return fmt.Errorf("%w: arrival_trace[%d].priority %d must be in [0, 2]", ErrInvalid, i, rec.Priority)
		}
		if rec.Lifetime <= 0 {
			return fmt.Errorf("%w: arrival_trace[%d].lifetime %v must be positive", ErrInvalid, i, rec.Lifetime.Std())
		}
		if err := rec.internal().Validate(); err != nil {
			return fmt.Errorf("%w: arrival_trace[%d]: %v", ErrInvalid, i, err) //vet:nowrap record detail only; ErrInvalid carries the chain
		}
		if i > 0 && rec.At < n.ArrivalTrace[i-1].At {
			return fmt.Errorf("%w: arrival_trace[%d] at %v precedes arrival_trace[%d]",
				ErrInvalid, i, rec.At.Std(), i-1)
		}
	}
	return nil
}

// validateTrace checks the shared trace fields of both spec types.
func validateTrace(trace bool, limit int) error {
	if limit < 0 {
		return fmt.Errorf("%w: trace_limit %d must not be negative", ErrInvalid, limit)
	}
	if limit > 0 && !trace {
		return fmt.Errorf("%w: trace_limit requires trace", ErrInvalid)
	}
	return nil
}

func knownArrivalProcess(name string) bool {
	for _, p := range cluster.ArrivalProcesses() {
		if p == name {
			return true
		}
	}
	return false
}

func knownScheduler(name string) bool {
	for _, k := range sched.Kinds() {
		if string(k) == name {
			return true
		}
	}
	return false
}

func knownPolicy(name string) bool {
	for _, p := range cluster.Policies() {
		if p == name {
			return true
		}
	}
	return false
}

// Key returns the canonical cache key of the scenario: "scenario-v1-" plus
// the SHA-256 (hex) of the normalized JSON. Two specs that mean the same
// run — differing only in omitted defaults — share a key. The Trace
// fields are zeroed first: tracing never changes results, so traced and
// untraced runs share the cached result.
func (s ScenarioV1) Key() string {
	n := s.Normalize()
	n.Trace = false
	n.TraceLimit = 0
	return canonicalKey("scenario-v1", n)
}

// Key returns the canonical cache key of the cluster spec. The Workers,
// PlaceCheck, and Trace fields are zeroed first: results are
// byte-identical at every worker count, with or without the placement
// shadow check, and with tracing on or off, so runs differing only in
// execution mechanics share the cached result. The arrival-generator
// fields all stay in the key — they shape the arrival stream, so they
// shape the result.
func (c ClusterV1) Key() string {
	n := c.Normalize()
	n.Workers = 0
	n.PlaceCheck = false
	n.Trace = false
	n.TraceLimit = 0
	return canonicalKey("cluster-v1", n)
}

// canonicalKey hashes kind plus the canonical JSON of a normalized spec.
// encoding/json marshals struct fields in declaration order, so the bytes
// are deterministic for a given normalized value.
func canonicalKey(kind string, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Spec types contain only plain data; Marshal cannot fail.
		panic(fmt.Sprintf("spec: canonical marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write(data)
	return kind + "-" + hex.EncodeToString(h.Sum(nil))
}
