// Package vprobe is a simulation-based reproduction of "vProbe: Scheduling
// Virtual Machines on NUMA Systems" (Wu, Sun, Zhou, Gan, Jin — IEEE
// CLUSTER 2016).
//
// The paper implements a NUMA-aware VCPU scheduler inside Xen 4.0.1:
// per-VCPU PMU counters feed a classifier (LLC access pressure, memory
// node affinity), a periodical partitioning mechanism reassigns
// memory-intensive VCPUs to nodes every sampling period, and a NUMA-aware
// work-stealing policy keeps idle PCPUs from dragging cache-hungry VCPUs
// across sockets. This package reproduces the entire system — hypervisor,
// machine, workloads, and the five schedulers the paper evaluates — as a
// deterministic discrete-event simulation, because the original artifact
// (a hypervisor patch on a 2-socket Xeon E5620) cannot be run directly.
//
// # Quick start
//
//	sim, err := vprobe.NewSimulator(vprobe.Config{
//		Scheduler: vprobe.SchedulerVProbe,
//		Events: vprobe.EventFunc(func(ev vprobe.Event) {
//			log.Printf("%v %s %s", ev.At, ev.Kind, ev.Detail)
//		}),
//	})
//	vm, err := sim.AddVM(vprobe.VMConfig{Name: "vm1", MemoryMB: 8192, VCPUs: 8})
//	err = vm.RunApp("soplex")
//	report, err := sim.RunContext(ctx, 60*time.Second)
//	fmt.Println(report)
//
// Run is RunContext without cancellation; configuration failures wrap the
// package's sentinel errors (ErrUnknownTopology, ErrUnknownScheduler,
// ErrNoFreeVCPU, ErrAlreadyStarted) for errors.Is. Server workloads start
// with the typed VM.RunMemcached / VM.RunRedis helpers.
//
// # Layout
//
// The public API wraps the internal packages:
//
//   - internal/core — the paper's algorithms (Eqs. 1–3, Algorithm 1 and 2)
//   - internal/xen — the hypervisor model (Credit mechanics, run queues)
//   - internal/sched — the five policies: Credit, vProbe, VCPU-P, LB, BRM
//   - internal/perf — the analytic NUMA performance model
//   - internal/workload — calibrated SPEC/NPB/memcached/Redis profiles
//   - internal/experiments — one runner per paper table/figure
//
// Run `go run ./cmd/vprobe-sim` to regenerate every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured record.
package vprobe

import (
	"context"
	"fmt"
	"time"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// Scheduler selects a VCPU scheduling policy (§V-A2 of the paper).
type Scheduler string

// The five schedulers of the paper's evaluation.
const (
	SchedulerCredit Scheduler = "credit"
	SchedulerVProbe Scheduler = "vprobe"
	SchedulerVCPUP  Scheduler = "vcpu-p"
	SchedulerLB     Scheduler = "lb"
	SchedulerBRM    Scheduler = "brm"
)

// Schedulers returns all selectable schedulers in the paper's order.
func Schedulers() []Scheduler {
	out := make([]Scheduler, 0, 5)
	for _, k := range sched.PaperOrder() {
		out = append(out, Scheduler(k))
	}
	return out
}

// Topology names a machine preset.
type Topology string

// Machine presets.
const (
	// TopologyXeonE5620 is the paper's Table I testbed: 2 sockets x 4
	// cores at 2.4 GHz, 12 MB LLC per socket, 12 GB per node.
	TopologyXeonE5620 Topology = "xeon-e5620"
	// TopologyFourNode is a synthetic 4-node machine exercising the
	// N > 2 paths of the paper's algorithms.
	TopologyFourNode Topology = "four-node"
	// TopologyUMA is a single-node machine (degenerate NUMA).
	TopologyUMA Topology = "uma"
)

// Config configures a Simulator.
type Config struct {
	// Scheduler is the policy under test (default SchedulerCredit).
	Scheduler Scheduler
	// Topology is the machine preset (default TopologyXeonE5620).
	Topology Topology
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// SamplePeriod overrides vProbe-family sampling (default 1s).
	SamplePeriod time.Duration
	// DynamicBounds enables the paper's §VI future-work extension:
	// classification bounds adapt to the running pressure distribution.
	DynamicBounds bool
	// PageMigration enables the §VI page-migration extension.
	PageMigration bool
	// Events receives structured scheduling events when non-nil.
	Events EventSink
	// Telemetry, when non-nil, collects metric time series from the run
	// (see NewTelemetry). A collector serves exactly one simulator;
	// reusing one fails with ErrTelemetryAttached.
	Telemetry *Telemetry
	// Spans, when non-nil, records the run's span flight recorder: domain
	// lifecycle spans in virtual time (see NewTracing). A recorder serves
	// exactly one run; reusing one fails with ErrTracingAttached.
	Spans *Tracing
}

// MemPolicy selects how a VM's memory is placed across nodes.
type MemPolicy int

// VM memory placement policies.
const (
	// MemFill packs memory node by node (Xen 4.0.1's default builder).
	MemFill MemPolicy = iota
	// MemStripe spreads memory evenly across nodes (the paper's VM1:
	// "split into two nodes").
	MemStripe
)

// VMConfig describes one virtual machine.
type VMConfig struct {
	Name     string
	MemoryMB int64
	VCPUs    int
	// Memory is the placement policy (default MemFill).
	Memory MemPolicy
	// FillGuestIdle attaches housekeeping bursts to VCPUs without apps
	// (realistic guest behaviour; default false).
	FillGuestIdle bool
}

// Simulator is a configured virtual NUMA machine ready to host VMs. A
// Simulator is single-use: running consumes it, and a second Run fails
// with ErrAlreadyRun.
type Simulator struct {
	h       *xen.Hypervisor
	cfg     Config
	started bool
	ran     bool
	// idle lists the VMs whose free VCPUs get guest-idle housekeeping
	// when the run starts.
	idle []*xen.Domain
}

// NewSimulator builds a simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedulerCredit
	}
	if cfg.Topology == "" {
		cfg.Topology = TopologyXeonE5620
	}
	mkTop, ok := numa.Presets[string(cfg.Topology)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopology, cfg.Topology)
	}
	pol, err := sched.Build(sched.Kind(cfg.Scheduler), sched.Settings{
		SamplePeriod: sim.Duration(cfg.SamplePeriod.Microseconds()),
		Dynamic:      cfg.DynamicBounds,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheduler, cfg.Scheduler)
	}
	xcfg := xen.DefaultConfig()
	if cfg.Seed != 0 {
		xcfg.Seed = cfg.Seed
	}
	h := xen.New(mkTop(), pol, xcfg)
	if cfg.PageMigration {
		h.Migrator = mem.DefaultMigrator()
	}
	return newSimulator(h, cfg)
}

// newSimulator wraps h, which already carries the policy and every
// simulation setting, attaching cfg's live hooks: events, telemetry and
// spans.
func newSimulator(h *xen.Hypervisor, cfg Config) (*Simulator, error) {
	h.EventFn = eventHook(cfg.Events)
	if cfg.Telemetry != nil {
		if err := cfg.Telemetry.attach(); err != nil {
			return nil, err
		}
		xen.AttachTelemetry(h, cfg.Telemetry.sampler)
	}
	if cfg.Spans != nil {
		// Span IDs derive from the effective seed (after the default), so
		// the same Config always records the same IDs.
		tracer, err := cfg.Spans.attach(h.Config.Seed)
		if err != nil {
			return nil, err
		}
		xen.AttachSpans(h, tracer)
	}
	return &Simulator{h: h, cfg: cfg}, nil
}

// Hypervisor exposes the underlying model for advanced use (inspection,
// custom policies). The returned value is owned by the simulator.
func (s *Simulator) Hypervisor() *xen.Hypervisor { return s.h }

// Tracing returns the run's span recorder, or nil when tracing is off —
// the handle a caller needs when CompileScenario created the recorder
// from a spec's trace field.
func (s *Simulator) Tracing() *Tracing { return s.cfg.Spans }

// VM is a created virtual machine.
type VM struct {
	sim *Simulator
	d   *xen.Domain
	cfg VMConfig
}

// AddVM creates a VM. All VMs must be added before Run; afterwards the
// call fails with ErrAlreadyStarted.
func (s *Simulator) AddVM(cfg VMConfig) (*VM, error) {
	if s.started {
		return nil, fmt.Errorf("%w: AddVM after Run", ErrAlreadyStarted)
	}
	pol := mem.PolicyFill
	if cfg.Memory == MemStripe {
		pol = mem.PolicyStripe
	}
	d, err := s.h.CreateDomain(cfg.Name, cfg.MemoryMB, cfg.VCPUs, pol)
	if err != nil {
		return nil, err
	}
	if cfg.FillGuestIdle {
		s.idle = append(s.idle, d)
	}
	return &VM{sim: s, d: d, cfg: cfg}, nil
}

// Domain exposes the underlying domain model.
func (vm *VM) Domain() *xen.Domain { return vm.d }

// RunApp starts one instance of a catalog application (by name: "soplex",
// "lu", "hungry", ...) on the VM's next free VCPU.
func (vm *VM) RunApp(name string) error {
	p, err := workload.ByName(name)
	if err != nil {
		return err
	}
	return vm.RunProfile(p)
}

// RunProfile starts an instance of an explicit profile on the next free
// VCPU of the VM, failing with ErrNoFreeVCPU when every VCPU is taken.
func (vm *VM) RunProfile(p *workload.Profile) error {
	for i, v := range vm.d.VCPUs {
		if v.App == nil {
			_, err := vm.sim.h.AttachApp(vm.d, i, p)
			return err
		}
	}
	return fmt.Errorf("%w: VM %q", ErrNoFreeVCPU, vm.cfg.Name)
}

// RunMemcached starts a memcached server profile driven at the given client
// concurrency (the swept parameter of the paper's Fig. 6).
func (vm *VM) RunMemcached(concurrency int) error {
	return vm.RunProfile(workload.Memcached(concurrency))
}

// RunRedis starts a Redis server profile loaded with the given client
// connection count (the swept parameter of the paper's Fig. 7).
func (vm *VM) RunRedis(connections int) error {
	return vm.RunProfile(workload.Redis(connections))
}

// Run advances the simulation for at most horizon of virtual time,
// stopping earlier if every finite app in every VM completes (in every
// watched VM, for a compiled scenario), and returns the report.
func (s *Simulator) Run(horizon time.Duration) (*Report, error) {
	return s.run(context.Background(), horizon, true)
}

// RunContext is Run with cooperative cancellation: the engine polls ctx
// periodically, and a cancelled context aborts the simulation and returns
// an error wrapping the context's (so errors.Is matches context.Canceled
// or context.DeadlineExceeded).
func (s *Simulator) RunContext(ctx context.Context, horizon time.Duration) (*Report, error) {
	return s.run(ctx, horizon, true)
}

// RunWatching is Run but stops as soon as the listed VMs complete (other
// VMs may still hold unfinished work).
func (s *Simulator) RunWatching(horizon time.Duration, vms ...*VM) (*Report, error) {
	return s.RunWatchingContext(context.Background(), horizon, vms...)
}

// RunWatchingContext is RunWatching with the cancellation semantics of
// RunContext.
func (s *Simulator) RunWatchingContext(ctx context.Context, horizon time.Duration, vms ...*VM) (*Report, error) {
	var ds []*xen.Domain
	for _, vm := range vms {
		ds = append(ds, vm.d)
	}
	s.h.WatchDomains(ds...)
	return s.run(ctx, horizon, false)
}

func (s *Simulator) run(ctx context.Context, horizon time.Duration, watchAll bool) (*Report, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("vprobe: non-positive horizon %v", horizon)
	}
	if s.ran {
		return nil, fmt.Errorf("%w: build a fresh Simulator per run", ErrAlreadyRun)
	}
	// The value is consumed the moment the engine advances — even a
	// cancelled run leaves state a re-run would silently corrupt.
	s.ran = true
	if !s.started {
		for _, d := range s.idle {
			for i, v := range d.VCPUs {
				if v.App != nil {
					continue
				}
				if _, err := s.h.AttachApp(d, i, workload.GuestIdle()); err != nil {
					return nil, err
				}
			}
		}
		if watchAll && len(s.h.Watched()) == 0 && len(s.h.Domains) > 0 {
			s.h.WatchDomains(s.h.Domains...)
		}
		if err := s.h.Start(); err != nil {
			return nil, err
		}
		// The sampler starts after the policy tickers (Start armed them):
		// at shared period boundaries the model updates first, so each
		// snapshot sees a fresh census.
		if s.cfg.Telemetry != nil {
			sampler := s.cfg.Telemetry.sampler
			// Size the ring to the horizon so it never wraps and the
			// export covers the whole run.
			sampler.Reserve(int(sim.Duration(horizon.Microseconds())/sampler.Period()) + 2)
			sampler.Start(s.h.Engine)
		}
		s.started = true
	}
	end, err := s.h.RunContext(ctx, sim.Duration(horizon.Microseconds()))
	if err != nil {
		return nil, fmt.Errorf("vprobe: run interrupted at %v: %w",
			time.Duration(end)*time.Microsecond, err)
	}
	// Close still-open spans (live domains, the run span) at the end time
	// so exports never contain open intervals.
	s.h.Spans.Close()
	return buildReport(s, end), nil
}
