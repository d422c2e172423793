// Package spec defines the serializable, versioned request types of the
// public simulation API: plain-data descriptions of a single-host scenario
// (ScenarioV1) and a multi-host cluster run (ClusterV1) that survive a JSON
// round trip byte-for-byte and carry no live state — no callbacks, no
// channels, no attached collectors. They are the wire format of
// vprobe-serve and of the root package's public API: CompileScenario
// lowers a validated ScenarioV1 onto the runtime vprobe.Config, and
// RunCluster lowers a validated ClusterV1 with ClusterV1.Config, the one
// copy of spec fields into cluster.Config. Both add the live hooks
// (Events, Telemetry, Spans) a spec cannot carry. The CLIs that need
// knobs the wire format deliberately lacks (vprobe-cluster,
// internal/experiments) build cluster.Config directly.
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
	"sort"
	"strings"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// VersionV1 is the schema version of ScenarioV1 and ClusterV1.
const VersionV1 = "v1"

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
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Std returns the standard-library value.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// sim returns the value in simulated microseconds.
func (d Duration) sim() sim.Duration { return sim.Duration(d.Std().Microseconds()) }

// AppV1 describes one application instance on a VM's next free VCPU.
// Exactly one of Name (a catalog workload: "soplex", "lu", "hungry", ...)
// or Server (a request-driven server: "memcached", "redis") is set; Load
// is the server's client concurrency (memcached) or connection count
// (redis) and must be positive for servers.
type AppV1 struct {
	Name   string `json:"name,omitempty"`
	Server string `json:"server,omitempty"`
	Load   int    `json:"load,omitempty"`
}

// VMV1 describes one virtual machine of a scenario.
type VMV1 struct {
	Name     string `json:"name"`
	MemoryMB int64  `json:"memory_mb"`
	VCPUs    int    `json:"vcpus"`
	// Memory is the placement policy: "fill" (default) or "stripe".
	Memory string `json:"memory,omitempty"`
	// FillGuestIdle attaches housekeeping bursts to VCPUs without apps.
	FillGuestIdle bool `json:"fill_guest_idle,omitempty"`
	// Apps run on the VM's first VCPUs in order.
	Apps []AppV1 `json:"apps,omitempty"`
}

// ScenarioV1 is the serializable form of a single-host simulation: the
// plain-data subset of vprobe.Config plus the VM population and horizon.
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
	// DynamicBounds enables the §VI adaptive-bounds extension.
	DynamicBounds bool `json:"dynamic_bounds,omitempty"`
	// PageMigration enables the §VI page-migration extension.
	PageMigration bool `json:"page_migration,omitempty"`
	// Horizon caps the simulated duration (default 30s); the run stops
	// earlier when every finite app completes.
	Horizon Duration `json:"horizon,omitempty"`
	// VMs is the virtual machine population (at least one).
	VMs []VMV1 `json:"vms"`
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

// Config lowers the spec onto the runtime cluster configuration. It is
// the one place a ClusterV1 field becomes a cluster.Config field. The
// spec is normalized first, so the seed and every other default are
// concrete; callers run Validate before running the result, and attach
// the live hooks (Events, Telemetry, Spans) themselves.
func (c ClusterV1) Config() cluster.Config {
	n := c.Normalize()
	cfg := cluster.Config{
		Hosts:             n.Hosts,
		Topology:          n.Topology,
		Scheduler:         sched.Kind(n.Scheduler),
		Policy:            n.Policy,
		Seed:              n.Seed,
		ArrivalsPerSecond: n.ArrivalsPerSecond,
		MeanLifetime:      n.MeanLifetime.sim(),
		Horizon:           n.Horizon.sim(),
		Workers:           n.Workers,
		Mix:               n.Mix,
		RebalancePeriod:   n.RebalancePeriod.sim(),
		Preempt:           n.Preempt,
		Gang:              n.Gang,
		GangFraction:      n.GangFraction,
		GangSize:          n.GangSize,
		Backfill:          n.Backfill,
		DeschedulePeriod:  n.DeschedulePeriod.sim(),
		PlaceCheck:        n.PlaceCheck,
		Arrival: cluster.ArrivalConfig{
			Process:          n.ArrivalProcess,
			DiurnalPeriod:    n.DiurnalPeriod.sim(),
			DiurnalAmplitude: n.DiurnalAmplitude,
			FlashAt:          n.FlashAt.sim(),
			FlashDuration:    n.FlashDuration.sim(),
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

// ArrivalProcesses lists the arrival generators a ClusterV1 accepts,
// sorted.
func ArrivalProcesses() []string { return cluster.ArrivalProcesses() }

// Mixes lists the workload mixes a ClusterV1 accepts, sorted.
func Mixes() []string { return []string{"batch", "mixed", "server"} }

// memoryPolicies lists the VMV1.Memory values, sorted.
func memoryPolicies() []string { return []string{"fill", "stripe"} }

// Topologies lists the machine presets, sorted.
func Topologies() []string {
	names := make([]string, 0, len(numa.Presets))
	for n := range numa.Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

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
		s.Topology = "xeon-e5620"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SamplePeriod == 0 {
		s.SamplePeriod = Duration(time.Second)
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
		vms[i] = vm
	}
	s.VMs = vms
	return s
}

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
		if vm.VCPUs <= 0 {
			return fmt.Errorf("%w: %s.vcpus %d must be positive", ErrInvalid, path, vm.VCPUs)
		}
		if vm.Memory != "fill" && vm.Memory != "stripe" {
			return fmt.Errorf("%w: %s.memory %q (have %s)",
				ErrInvalid, path, vm.Memory, strings.Join(memoryPolicies(), ", "))
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
	}
	return nil
}

// validate checks one app reference.
func (a AppV1) validate(path string) error {
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
	if c.Topology == "" {
		c.Topology = "xeon-e5620"
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

// Validate checks a cluster spec; failures wrap ErrVersion or ErrInvalid.
func (c ClusterV1) Validate() error {
	if c.Version != "" && c.Version != VersionV1 {
		return fmt.Errorf("%w: %q (have %s)", ErrVersion, c.Version, VersionV1)
	}
	n := c.Normalize()
	if n.Hosts < 1 {
		return fmt.Errorf("%w: hosts %d must be positive", ErrInvalid, n.Hosts)
	}
	if _, ok := numa.Presets[n.Topology]; !ok {
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
	if n.ArrivalsPerSecond < 0 {
		return fmt.Errorf("%w: arrivals_per_second %v must not be negative", ErrInvalid, n.ArrivalsPerSecond)
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
	if n.GangFraction < 0 || n.GangFraction > 1 {
		return fmt.Errorf("%w: gang_fraction %v must be in [0, 1]", ErrInvalid, n.GangFraction)
	}
	if n.GangSize < 0 {
		return fmt.Errorf("%w: gang_size %d must not be negative", ErrInvalid, n.GangSize)
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
	if n.DiurnalAmplitude < 0 || n.DiurnalAmplitude > 1 {
		return fmt.Errorf("%w: diurnal_amplitude %v must be in [0, 1]", ErrInvalid, n.DiurnalAmplitude)
	}
	if n.FlashAt < 0 || n.FlashDuration < 0 {
		return fmt.Errorf("%w: flash_at %v / flash_duration %v must not be negative",
			ErrInvalid, n.FlashAt.Std(), n.FlashDuration.Std())
	}
	if n.FlashFactor < 0 || (n.ArrivalProcess == "flash" && n.FlashFactor < 1) {
		return fmt.Errorf("%w: flash_factor %v must be at least 1", ErrInvalid, n.FlashFactor)
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
