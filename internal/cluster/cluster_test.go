package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// runWith runs a small cluster and returns the report plus the rendered
// event log.
func runWith(t *testing.T, cfg Config) (*Report, string) {
	t.Helper()
	_, rep, log := runCluster(t, cfg)
	return rep, log
}

// runCluster is runWith that also returns the cluster it ran.
func runCluster(t *testing.T, cfg Config) (*Cluster, *Report, string) {
	t.Helper()
	var log strings.Builder
	cfg.Events = func(ev Event) {
		fmt.Fprintf(&log, "%v %s %s %s %s\n", ev.At, ev.Kind, ev.Host, ev.VM, ev.Detail)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, rep, log.String()
}

func TestClusterLifecycle(t *testing.T) {
	rep, log := runWith(t, Config{
		Hosts:   2,
		Horizon: 90 * sim.Second,
		Seed:    7,
		Workers: 1,
	})
	if rep.Arrivals == 0 {
		t.Fatal("no arrivals in 90s at the default rate")
	}
	if rep.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if rep.Departed == 0 {
		t.Fatal("nothing departed in 90s with 60s mean lifetime")
	}
	if rep.Utilization <= 0 {
		t.Fatal("hosts never ran anything")
	}
	// Conservation: every arrival is placed, rejected, or still pending.
	resident := 0
	for _, h := range rep.PerHost {
		resident += h.Resident
	}
	if resident > rep.Placed {
		t.Fatalf("resident %d > placed %d", resident, rep.Placed)
	}
	for _, kind := range []EventKind{EventVMArrive, EventVMPlace, EventVMDepart} {
		if !strings.Contains(log, string(kind)) {
			t.Fatalf("event log missing %q:\n%s", kind, log)
		}
	}
}

// TestClusterDeterministicAcrossWorkers is the acceptance criterion: a
// fixed seed must produce byte-identical reports and event logs at every
// worker count.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	base := Config{
		Hosts:             3,
		Horizon:           60 * sim.Second,
		Seed:              11,
		ArrivalsPerSecond: 0.5,
		MeanLifetime:      25 * sim.Second,
	}
	var wantRep, wantLog string
	for _, workers := range []int{1, 3, 0} {
		cfg := base
		cfg.Workers = workers
		rep, log := runWith(t, cfg)
		if wantRep == "" {
			wantRep, wantLog = rep.String(), log
			continue
		}
		if rep.String() != wantRep {
			t.Fatalf("report diverges at workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, wantRep, workers, rep.String())
		}
		if log != wantLog {
			t.Fatalf("event log diverges at workers=%d", workers)
		}
	}
}

func TestClusterPerSchedulerAndPolicy(t *testing.T) {
	// Every registered policy must drive a run to completion under both
	// per-host schedulers the experiment compares.
	for _, pol := range Policies() {
		for _, kind := range []sched.Kind{sched.KindCredit, sched.KindVProbe} {
			rep, _ := runWith(t, Config{
				Hosts:     2,
				Policy:    pol,
				Scheduler: kind,
				Horizon:   30 * sim.Second,
				Seed:      3,
				Workers:   2,
			})
			if rep.Policy != pol || rep.Scheduler != string(kind) {
				t.Fatalf("report labels %q/%q, want %q/%q",
					rep.Policy, rep.Scheduler, pol, kind)
			}
			if rep.Placed == 0 {
				t.Fatalf("%s/%s placed nothing", pol, kind)
			}
		}
	}
}

func TestClusterRejectsWhenFull(t *testing.T) {
	rep, log := runWith(t, Config{
		Hosts:             1,
		Horizon:           120 * sim.Second,
		Seed:              5,
		ArrivalsPerSecond: 1.0,
		MeanLifetime:      500 * sim.Second, // VMs effectively never leave
		Workers:           1,
	})
	if rep.Retries == 0 {
		t.Fatal("an overloaded single host never queued a retry")
	}
	if rep.Rejected == 0 {
		t.Fatal("an overloaded single host never rejected")
	}
	if !strings.Contains(log, string(EventVMReject)) {
		t.Fatal("no vm-reject event logged")
	}
	if rep.RejectionRate <= 0 || rep.RejectionRate > 1 {
		t.Fatalf("rejection rate %v out of range", rep.RejectionRate)
	}
}

func TestClusterMigrates(t *testing.T) {
	// pack piles cache-hungry VMs onto one host while the others idle —
	// exactly the asymmetry the rebalancer exists to repair. (Under
	// spread/numa all hosts heat up together, and with no cooler target
	// the rebalancer correctly stays put.)
	rep, log := runWith(t, Config{
		Hosts:             3,
		Horizon:           150 * sim.Second,
		Seed:              2,
		ArrivalsPerSecond: 0.6,
		MeanLifetime:      120 * sim.Second,
		Mix:               "batch", // cache-hungry mix drives LLC pressure up
		Policy:            "pack",
		LLCPressureLimit:  20, // low threshold: one thrashing app trips it
		RebalancePeriod:   5 * sim.Second,
		Workers:           2,
	})
	if rep.Migrations == 0 {
		t.Fatal("no migrations despite a low LLC pressure limit")
	}
	starts := strings.Count(log, string(EventMigrateStart))
	dones := strings.Count(log, string(EventMigrateDone))
	if starts != rep.Migrations {
		t.Fatalf("%d migrate-start events, stats say %d", starts, rep.Migrations)
	}
	// Every start completes unless the VM departed mid-copy; allow that
	// slack but not the reverse.
	if dones > starts {
		t.Fatalf("%d migrate-done > %d migrate-start", dones, starts)
	}
}

func TestClusterCancellation(t *testing.T) {
	c, err := New(Config{Hosts: 2, Horizon: 300 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// lateCancelCtx cancels itself on its nth Err call, after reading the
// error it returns: the call reports a live context whose Done is
// already closed, as a cancellation landing just after a poll does.
type lateCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	nth    int64
}

func (l *lateCancelCtx) Err() error {
	err := l.Context.Err()
	if l.calls.Add(1) == l.nth {
		l.cancel()
	}
	return err
}

// TestClusterCancelledAfterPoll cancels Run's context right after one of
// its polls has read it live, with several workers so host advances take
// harness.Map's parallel path, which derives a context from Run's. The
// run must stop with the cancellation.
func TestClusterCancelledAfterPoll(t *testing.T) {
	for _, nth := range []int64{2, 5, 10} {
		c, err := New(Config{Hosts: 8, Horizon: 300 * sim.Second, Seed: 1,
			ArrivalsPerSecond: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		parent, cancel := context.WithCancel(context.Background())
		ctx := &lateCancelCtx{Context: parent, cancel: cancel, nth: nth}
		_, err = c.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("nth=%d: run cancelled after a poll returned %v", nth, err)
		}
	}
}

// mapGoroutines counts the goroutines running harness.Map's workers.
func mapGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "vprobe/internal/harness.Map[")
}

// TestClusterCancelledMidSync cancels a run from inside a parallel host
// advance: the rebalancer's first sync hands every host to harness.Map,
// an event planted on host0 cancels Run's context, and one planted on
// host1 keeps its worker busy for a while after the cancellation, as a
// long advance between context polls would. Run must return the
// cancellation and leave none of harness.Map's worker goroutines behind,
// so it may return only once that worker is done.
func TestClusterCancelledMidSync(t *testing.T) {
	c, err := New(Config{Hosts: 16, Horizon: 300 * sim.Second, Seed: 1,
		ArrivalsPerSecond: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	at := sim.Time(10*sim.Second) - 1
	inMap := false
	lingering := make(chan struct{})
	c.hosts[0].H.Engine.ScheduleAt(at, "cancel", func(*sim.Engine) {
		inMap = strings.Contains(string(debug.Stack()), "harness.Map")
		select { // host1 on another worker, when the workers split them
		case <-lingering:
		case <-time.After(time.Second):
		}
		cancel()
	})
	c.hosts[1].H.Engine.ScheduleAt(at, "linger", func(*sim.Engine) {
		close(lingering)
		select {
		case <-ctx.Done():
			time.Sleep(50 * time.Millisecond)
		case <-time.After(5 * time.Second):
		}
	})
	_, err = c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-sync returned %v", err)
	}
	if !inMap {
		t.Fatal("the cancellation did not land inside a harness.Map host advance")
	}
	if n := mapGoroutines(); n != 0 {
		t.Fatalf("%d harness.Map goroutines outlive the cancelled run", n)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Policy: "roulette"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Config{Topology: numa.Config{Name: "toaster"}}); err == nil {
		t.Fatal("topology without nodes accepted")
	}
	if _, err := New(Config{Scheduler: "fifo"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := New(Config{Mix: "chaos"}); err == nil {
		t.Fatal("unknown mix accepted")
	}
}
