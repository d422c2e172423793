package vprobe_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"vprobe"
)

// TestSentinelErrors asserts each sentinel survives the wrapping the public
// API applies, so errors.Is-based handling works.
func TestSentinelErrors(t *testing.T) {
	t.Run("unknown topology", func(t *testing.T) {
		_, err := vprobe.NewSimulator(vprobe.Config{Topology: "toaster"})
		if !errors.Is(err, vprobe.ErrUnknownTopology) {
			t.Fatalf("err = %v, want ErrUnknownTopology", err)
		}
	})
	t.Run("unknown scheduler", func(t *testing.T) {
		_, err := vprobe.NewSimulator(vprobe.Config{Scheduler: "fifo"})
		if !errors.Is(err, vprobe.ErrUnknownScheduler) {
			t.Fatalf("err = %v, want ErrUnknownScheduler", err)
		}
	})
	t.Run("no free vcpu", func(t *testing.T) {
		sim, err := vprobe.NewSimulator(vprobe.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.AddVM(vprobe.VMConfig{Name: "tiny", MemoryMB: 1024, VCPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
		if err := vm.RunApp("hungry"); !errors.Is(err, vprobe.ErrNoFreeVCPU) {
			t.Fatalf("err = %v, want ErrNoFreeVCPU", err)
		}
	})
	t.Run("already started", func(t *testing.T) {
		sim, err := vprobe.NewSimulator(vprobe.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.AddVM(vprobe.VMConfig{Name: "vm", MemoryMB: 1024, VCPUs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		_, err = sim.AddVM(vprobe.VMConfig{Name: "late", MemoryMB: 1024, VCPUs: 1})
		if !errors.Is(err, vprobe.ErrAlreadyStarted) {
			t.Fatalf("err = %v, want ErrAlreadyStarted", err)
		}
	})
}

// TestTypedEvents asserts Config.Events receives structured events whose
// typed fields agree with the rendered detail line.
func TestTypedEvents(t *testing.T) {
	var events []vprobe.Event
	sim, err := vprobe.NewSimulator(vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Seed:      1,
		Events:    vprobe.EventFunc(func(ev vprobe.Event) { events = append(events, ev) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.AddVM(vprobe.VMConfig{
		Name: "vm", MemoryMB: 4 * 1024, VCPUs: 2, FillGuestIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.RunApp("soplex"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	sim, err := vprobe.NewSimulator(vprobe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.AddVM(vprobe.VMConfig{Name: "vm", MemoryMB: 1024, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := vm.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sim.RunContext(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTypedServerHelpers asserts RunMemcached/RunRedis attach servers that
// serve requests.
func TestTypedServerHelpers(t *testing.T) {
	build := func(attach func(vm *vprobe.VM) error) *vprobe.Report {
		t.Helper()
		sim, err := vprobe.NewSimulator(vprobe.Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.AddVM(vprobe.VMConfig{
			Name: "srv", MemoryMB: 8 * 1024, VCPUs: 4, FillGuestIdle: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := attach(vm); err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	typed := build(func(vm *vprobe.VM) error { return vm.RunRedis(4000) })
	if typed.TotalRequests() <= 0 {
		t.Fatal("RunRedis served no requests")
	}

	mc := build(func(vm *vprobe.VM) error { return vm.RunMemcached(64) })
	if mc.TotalRequests() <= 0 {
		t.Fatal("RunMemcached served no requests")
	}
}
