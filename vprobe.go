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
// A run is described by a ScenarioSpec — the same serializable type
// vprobe-serve accepts — and compiled into a single-use Simulator:
//
//	sim, horizon, err := vprobe.CompileScenario(vprobe.ScenarioSpec{
//		Scheduler: string(vprobe.SchedulerVProbe),
//		Horizon:   vprobe.SpecDuration(60 * time.Second),
//		VMs: []vprobe.VMSpec{{Name: "vm1", MemoryMB: 8192, VCPUs: 8,
//			Apps: []vprobe.AppSpec{{Name: "soplex"}}}},
//	}, vprobe.CompileOptions{
//		Events: vprobe.EventFunc(func(ev vprobe.Event) {
//			log.Printf("%v %s %s", ev.At, ev.Kind, ev.Detail)
//		}),
//	})
//	report, err := sim.RunContext(ctx, horizon)
//	fmt.Println(report)
//
// Failures wrap the package's sentinel errors for errors.Is: an invalid
// spec ErrInvalidSpec or ErrSpecVersion, a reused collector
// ErrTelemetryAttached or ErrTracingAttached, and a second run of one
// Simulator ErrAlreadyRun. Server workloads are apps with Server and Load
// set (AppSpec{Server: "memcached", Load: 64}).
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

	"vprobe/internal/sched"
	"vprobe/internal/sim"
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

// Simulator is a compiled scenario ready to run (see CompileScenario). A
// Simulator is single-use: running consumes it, and a second run fails
// with ErrAlreadyRun.
type Simulator struct {
	h         *xen.Hypervisor
	scheduler Scheduler
	opts      CompileOptions
	ran       bool
}

// Hypervisor exposes the underlying model for advanced use (inspection,
// custom policies). The returned value is owned by the simulator.
func (s *Simulator) Hypervisor() *xen.Hypervisor { return s.h }

// Tracing returns the run's span recorder, or nil when tracing is off —
// the handle a caller needs when CompileScenario created the recorder
// from a spec's trace field.
func (s *Simulator) Tracing() *Tracing { return s.opts.Spans }

// RunContext advances the simulation for at most horizon of virtual
// time, stopping earlier once every finite app of the watched VMs has
// completed, and returns the report. The engine polls ctx periodically: a
// cancelled context aborts the simulation and returns an error wrapping
// the context's (so errors.Is matches context.Canceled or
// context.DeadlineExceeded).
func (s *Simulator) RunContext(ctx context.Context, horizon time.Duration) (*Report, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("vprobe: non-positive horizon %v", horizon)
	}
	if s.ran {
		return nil, fmt.Errorf("%w: build a fresh Simulator per run", ErrAlreadyRun)
	}
	// The value is consumed the moment the engine advances — even a
	// cancelled run leaves state a re-run would silently corrupt.
	s.ran = true
	defer s.opts.seal()
	if err := s.h.Start(); err != nil {
		return nil, err
	}
	// The sampler starts after the policy tickers (Start armed them): at
	// shared period boundaries the model updates first, so each snapshot
	// sees a fresh census.
	if s.opts.Telemetry != nil {
		sampler := s.opts.Telemetry.sampler
		// Size the ring to the horizon so it never wraps and the export
		// covers the whole run.
		sampler.Reserve(int(sim.Duration(horizon.Microseconds())/sampler.Period()) + 2)
		sampler.Start(s.h.Engine)
	}
	end, err := s.h.RunContext(ctx, sim.Duration(horizon.Microseconds()))
	if err != nil {
		return nil, fmt.Errorf("vprobe: run interrupted at %v: %w",
			time.Duration(end)*time.Microsecond, err)
	}
	// Close still-open spans (the domains, the run span) at the end time
	// so exports never contain open intervals.
	if s.opts.Spans != nil {
		s.opts.Spans.tracer.CloseOpen(end)
	}
	return buildReport(s, end), nil
}
