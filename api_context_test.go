package vprobe_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"vprobe"
)

// TestSentinelErrors asserts each rejected scenario surfaces the public
// sentinel through CompileScenario's wrapping, so errors.Is-based handling
// works.
func TestSentinelErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		spec vprobe.ScenarioSpec
	}{
		{"unknown topology", vprobe.ScenarioSpec{Topology: "toaster", VMs: oneVM().VMs}},
		{"unknown scheduler", vprobe.ScenarioSpec{Scheduler: "fifo", VMs: oneVM().VMs}},
		{"no free vcpu", oneVM(apps("hungry", 2)...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := vprobe.CompileScenario(c.spec, vprobe.CompileOptions{})
			if !errors.Is(err, vprobe.ErrInvalidSpec) {
				t.Fatalf("err = %v, want ErrInvalidSpec", err)
			}
		})
	}
}

// TestTypedEvents asserts CompileOptions.Events receives structured events
// whose typed fields agree with the rendered detail line.
func TestTypedEvents(t *testing.T) {
	var events []vprobe.Event
	run(t, vprobe.ScenarioSpec{
		Scheduler: string(vprobe.SchedulerVProbe),
		Horizon:   vprobe.SpecDuration(2 * time.Second),
		VMs: []vprobe.VMSpec{{Name: "vm", MemoryMB: 4 * 1024, VCPUs: 2, FillGuestIdle: true,
			Apps: apps("soplex", 1)}},
	}, vprobe.CompileOptions{Events: vprobe.EventFunc(func(ev vprobe.Event) { events = append(events, ev) })})
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}
	sawDispatch := false
	for _, ev := range events {
		if ev.Kind == "" || ev.Detail == "" {
			t.Fatalf("untyped event: %+v", ev)
		}
		if ev.String() != ev.Detail {
			t.Fatalf("String() != Detail: %+v", ev)
		}
		if ev.Kind == vprobe.EventDispatch {
			sawDispatch = true
			if ev.VCPU < 0 {
				t.Fatalf("dispatch without VCPU: %+v", ev)
			}
			if ev.Node < 0 {
				t.Fatalf("dispatch without node: %+v", ev)
			}
		}
	}
	if !sawDispatch {
		t.Fatal("no dispatch events in a 2s run")
	}
}

// TestRunContextCancelled asserts a cancelled context interrupts the
// simulation with a wrapped context error.
func TestRunContextCancelled(t *testing.T) {
	sim, _ := compile(t, vprobe.ScenarioSpec{
		VMs: []vprobe.VMSpec{{Name: "vm", MemoryMB: 1024, VCPUs: 2, Apps: apps("hungry", 2)}},
	}, vprobe.CompileOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunContext(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTypedServerHelpers asserts the typed server apps (an AppSpec with
// Server and Load) attach servers that serve requests.
func TestTypedServerHelpers(t *testing.T) {
	for _, server := range []vprobe.AppSpec{{Server: "redis", Load: 4000}, {Server: "memcached", Load: 64}} {
		rep := run(t, vprobe.ScenarioSpec{
			Seed:    2,
			Horizon: vprobe.SpecDuration(2 * time.Second),
			VMs: []vprobe.VMSpec{{Name: "srv", MemoryMB: 8 * 1024, VCPUs: 4, FillGuestIdle: true,
				Apps: []vprobe.AppSpec{server}}},
		}, vprobe.CompileOptions{})
		if rep.TotalRequests() <= 0 {
			t.Fatalf("%s served no requests", server.Server)
		}
	}
}
