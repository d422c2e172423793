package vprobe_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"vprobe"
)

// TestRunCluster drives the public cluster API end-to-end: a short
// multi-host run produces a populated report and cluster-scoped events.
func TestRunCluster(t *testing.T) {
	var events []vprobe.Event
	rep, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
		Hosts:   2,
		Policy:  string(vprobe.PolicyNUMA),
		Seed:    9,
		Horizon: vprobe.SpecDuration(60 * time.Second),
		Workers: 2,
	}, vprobe.CompileOptions{
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			events = append(events, ev)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hosts != 2 || rep.Policy != vprobe.PolicyNUMA || rep.Scheduler != vprobe.SchedulerCredit {
		t.Fatalf("report echoes wrong config: %+v", rep)
	}
	if rep.Arrivals == 0 || rep.Placed == 0 || rep.Utilization <= 0 {
		t.Fatalf("empty run: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("report renders empty")
	}
	if rep.Tracing() != nil {
		t.Fatal("untraced run returned a span recorder")
	}
	if len(events) == 0 {
		t.Fatal("no cluster events delivered")
	}
	sawPlace := false
	for _, ev := range events {
		if ev.VCPU != -1 || ev.Node != -1 {
			t.Fatalf("cluster event carries VCPU/Node: %+v", ev)
		}
		if ev.Kind == vprobe.EventVMPlace {
			sawPlace = true
			if ev.Host == "" || ev.VM == "" {
				t.Fatalf("placement without subjects: %+v", ev)
			}
		}
	}
	if !sawPlace {
		t.Fatal("no vm-place event in a 60s run")
	}
}

// TestRunClusterSentinels asserts a bad spec fails validation with the
// spec sentinels before anything runs.
func TestRunClusterSentinels(t *testing.T) {
	ctx := context.Background()
	for name, s := range map[string]vprobe.ClusterSpec{
		"policy":    {Policy: "roulette"},
		"topology":  {Topology: "toaster"},
		"scheduler": {Scheduler: "fifo"},
		"arrival":   {ArrivalProcess: "bursty"},
	} {
		if _, err := vprobe.RunCluster(ctx, s, vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
	if _, err := vprobe.RunCluster(ctx, vprobe.ClusterSpec{Version: "v2"}, vprobe.CompileOptions{}); !errors.Is(err, vprobe.ErrSpecVersion) {
		t.Errorf("version: err = %v, want ErrSpecVersion", err)
	}
}

// TestPoliciesList asserts the public policy enumeration covers the three
// built-ins.
func TestPoliciesList(t *testing.T) {
	have := map[vprobe.Policy]bool{}
	for _, p := range vprobe.Policies() {
		have[p] = true
	}
	for _, want := range []vprobe.Policy{vprobe.PolicyPack, vprobe.PolicySpread, vprobe.PolicyNUMA} {
		if !have[want] {
			t.Fatalf("Policies() = %v missing %q", vprobe.Policies(), want)
		}
	}
}
