package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// fleetConfig is a cluster workload: one cluster.Run per pass, each pass
// on a cluster seed of its own.
type fleetConfig struct {
	name string
	// cluster is the run's configuration; the seed comes from the
	// command line, and the traced run swaps in a timed copy of Policy.
	cluster cluster.Config
	// nominalPass is one run's wall time on the reference machine.
	nominalPass time.Duration
	// setupReps is how many times each pass's cluster is built, each build
	// timed; setup_s is the median of all builds.
	setupReps   int
	checkGolden bool
}

// fleetChurn is the only workload that reaches the cluster and control
// plane. At this load preemption and backfill do not fire. Hosts advance
// on one worker and the process runs on one P: on a two-CPU machine a
// second worker, or the garbage collector working beside the run on the
// second CPU, made one run up to 1.5 times slower than the next with the
// same seed (see README.md).
var fleetChurn = fleetConfig{
	name: "fleet-churn",
	cluster: cluster.Config{
		Hosts:             1024,
		Scheduler:         sched.KindVProbe,
		Policy:            "numa",
		ArrivalsPerSecond: 100,
		MeanLifetime:      10 * sim.Second,
		Horizon:           20 * sim.Second,
		Workers:           1,
		Preempt:           true,
		Gang:              true,
		GangFraction:      0.2,
		Backfill:          true,
		DeschedulePeriod:  10 * sim.Second,
	},
	nominalPass: 4 * time.Second,
	setupReps:   5,
	checkGolden: true,
}

// passSeed is the cluster seed of pass k of a run with the given seed.
// The passes of a run cover several arrival streams, so the run's time
// does not hang on one stream's luck.
func passSeed(seed uint64, k int) uint64 { return seed<<16 | uint64(k) }

// passItem names pass k's report in golden.json.
func passItem(k int) string { return fmt.Sprintf("report-%d", k) }

// fleetPass is one cluster run.
type fleetPass struct {
	wall, cpu time.Duration
	report    *cluster.Report
	digest    string
}

// runCluster runs one built cluster and digests its report. The policy
// name is blanked before digesting: the traced run places through a timed
// copy of the policy registered under another name.
func runCluster(ctx context.Context, c *cluster.Cluster) (*fleetPass, error) {
	cpu0 := cpuTime()
	start := now()
	rep, err := c.Run(ctx)
	p := &fleetPass{wall: now().Sub(start), cpu: cpuTime() - cpu0, report: rep}
	if err != nil {
		return nil, fmt.Errorf("cluster run: %w", err)
	}
	numbers := *rep
	numbers.Policy = ""
	b, err := json.Marshal(numbers)
	if err != nil {
		return nil, fmt.Errorf("cluster report: %w", err)
	}
	p.digest = digest(b)
	return p, nil
}

// check counts pass k of a run and fails it when its report differs from
// ref (when given) or from the golden digest.
func (p *fleetPass) check(cfg fleetConfig, seed uint64, k int, ref string, res *result) {
	res.attempted++
	switch {
	case ref != "" && p.digest != ref:
		res.fail("pass %d: cluster report differs from the same seed's first run", k)
	case cfg.checkGolden:
		if want, ok := goldenDigest(cfg.name, seed, passItem(k)); ok && want != p.digest {
			res.fail("pass %d: cluster report digest %s, golden %s", k, p.digest[:12], want[:12])
		}
	}
}

// runFleetPass builds pass k's cluster cfg.setupReps times, timing each
// build, and runs the last one.
func runFleetPass(ctx context.Context, cfg fleetConfig, seed uint64, k int, setup *setupClock) (*fleetPass, error) {
	ccfg := cfg.cluster
	ccfg.Seed = passSeed(seed, k)
	var c *cluster.Cluster
	err := setup.measure(cfg.setupReps, func(last bool) error {
		built, err := cluster.New(ccfg)
		if last {
			c = built
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return runCluster(ctx, c)
}

func runFleet(ctx context.Context, cfg fleetConfig, rc runConfig) (*result, error) {
	// One P, for the reason given at fleetChurn.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	var setup setupClock
	// A process's first run pays for growing its heap, by a third of the
	// run and by a different amount each time. That run is the warm-up,
	// untimed, and the reference pass 0 must reproduce.
	warm, err := runFleetPass(ctx, cfg, rc.seed, 0, &setup)
	if err != nil {
		return nil, err
	}
	warm.check(cfg, rc.seed, 0, "", res)
	if rc.trace {
		return res, traceFleet(ctx, cfg, rc, warm.digest, &setup, res)
	}
	digests := map[string]string{}
	var walls, cpus []float64
	for k := 0; k < passes(rc.seconds, cfg.nominalPass); k++ {
		p, err := runFleetPass(ctx, cfg, rc.seed, k, &setup)
		if err != nil {
			return nil, err
		}
		ref := ""
		if k == 0 {
			ref = warm.digest
		}
		p.check(cfg, rc.seed, k, ref, res)
		digests[passItem(k)] = p.digest
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	res.note("pass wall_s %v cpu_s %v", walls, cpus)
	res.values["setup_s"] = setup.median()
	res.values["wall_s"] = median(walls)
	res.values["cpu_s"] = median(cpus)
	res.note("digests %s", digestNote(digests))
	return res, nil
}

// traceFleet runs pass 0 plainly, then again through a timed copy of its
// placement policy with an event recorder attached, checks both reports
// match the warm-up's, and reports per-layer metrics.
func traceFleet(ctx context.Context, cfg fleetConfig, rc runConfig, ref string, setup *setupClock, res *result) error {
	plain, err := runFleetPass(ctx, cfg, rc.seed, 0, setup)
	if err != nil {
		return err
	}
	plain.check(cfg, rc.seed, 0, ref, res)

	filter, score := callTimer{every: hotSample}, callTimer{every: hotSample}
	name, err := registerTimedPolicy(cfg.cluster.Policy, &filter, &score)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.begin(0, "workload "+cfg.name)
	rec := &fleetRecorder{tr: tr, arrived: map[string]arrival{}, lastAt: -1}
	ccfg := cfg.cluster
	ccfg.Seed = passSeed(rc.seed, 0)
	ccfg.Policy = name
	ccfg.Events = rec.event
	c, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	rec.parent = tr.begin(root, "cluster run")
	rec.last = now()
	traced, err := runCluster(ctx, c)
	if err != nil {
		return err
	}
	tr.end(rec.parent)
	tr.end(root)
	traced.check(cfg, rc.seed, 0, ref, res)
	path, err := tr.write(rc.traceDir)
	if err != nil {
		return err
	}
	res.note("spans written to %s", path)

	v := res.values
	rep := traced.report
	v["cluster.filter.calls"] = float64(filter.calls)
	v["cluster.filter.ns_per_call"] = filter.nsPerCall()
	v["cluster.score.calls"] = float64(score.calls)
	v["cluster.score.ns_per_call"] = score.nsPerCall()
	v["cluster.score.calls_per_decision"] = ratio(float64(score.calls), float64(rep.Placed))
	res.pct("cluster.place_us.p50", rec.placeUS, 0.50)
	res.pct("cluster.place_us.p99", rec.placeUS, 0.99)
	placeS := rec.decide.Seconds()
	v["cluster.place_s"] = placeS
	v["cluster.advance_s"] = rec.advance.Seconds()
	v["cluster.other_s"] = traced.wall.Seconds() - placeS
	v["cluster.arrivals"] = float64(rep.Arrivals)
	v["cluster.placed"] = float64(rep.Placed)
	v["cluster.retries"] = float64(rep.Retries)
	v["cluster.rejected"] = float64(rep.Rejected)
	v["cluster.departed"] = float64(rep.Departed)
	v["cluster.migrations"] = float64(rep.Migrations)
	v["cluster.preemptions"] = float64(rep.Preemptions)
	v["cluster.gangs"] = float64(rep.GangsAdmitted)
	v["cluster.backfills"] = float64(rep.Backfills)
	v["cluster.desched_moves"] = float64(rep.DeschedMoves)
	v["cluster.retry_ratio"] = ratio(float64(rep.Retries), float64(rep.Arrivals))
	v["trace.overhead_ratio"] = ratio(traced.wall.Seconds(), plain.wall.Seconds())
	v["unexplained_share"] = 1 - ratio((rec.decide+rec.advance).Seconds(), traced.wall.Seconds())
	return nil
}

// timedPolicies numbers the timed policy copies: the policy registry is
// process-wide and refuses duplicate names.
var timedPolicies atomic.Int64

// registerTimedPolicy registers a copy of the named placement policy whose
// filter and score plugins are wrapped in timers, and returns its name.
func registerTimedPolicy(base string, filter, score *callTimer) (string, error) {
	if _, err := cluster.NewPipeline(base); err != nil {
		return "", err
	}
	name := fmt.Sprintf("bench-timed-%s-%d", base, timedPolicies.Add(1))
	cluster.RegisterPolicy(name, func() *cluster.Pipeline {
		pl, err := cluster.NewPipeline(base)
		if err != nil {
			panic(fmt.Sprintf("benchmark: policy %q vanished from the registry: %v", base, err))
		}
		out := &cluster.Pipeline{Name: name, MemPlan: pl.MemPlan}
		for _, f := range pl.Filters {
			out.Filters = append(out.Filters, timedFilter{FilterPlugin: f, t: filter})
		}
		for _, s := range pl.Scorers {
			out.Scorers = append(out.Scorers, cluster.WeightedScore{
				Plugin: timedScore{ScorePlugin: s.Plugin, t: score}, Weight: s.Weight})
		}
		return out
	})
	return name, nil
}

// timedFilter and timedScore time one plugin call each. Placement runs
// on the cluster's event loop alone, so the shared timers need no lock.
type timedFilter struct {
	cluster.FilterPlugin
	t *callTimer
}

func (f timedFilter) Filter(spec *cluster.VMSpec, hv *cluster.HostView) error {
	t0, timed := f.t.start()
	err := f.FilterPlugin.Filter(spec, hv)
	if timed {
		f.t.stop(t0)
	}
	return err
}

type timedScore struct {
	cluster.ScorePlugin
	t *callTimer
}

func (s timedScore) Score(spec *cluster.VMSpec, hv *cluster.HostView) float64 {
	t0, timed := s.t.start()
	v := s.ScorePlugin.Score(spec, hv)
	if timed {
		s.t.stop(t0)
	}
	return v
}

// arrival is when a VM arrived, in wall and simulated time.
type arrival struct {
	wall time.Time
	at   sim.Time
}

// fleetRecorder attributes the wall time between consecutive cluster
// events. Hosts advance only when simulated time moves, so a gap ending
// in an event at the previous event's simulated instant is decision time,
// and any other gap is host advance (plus the handler's own prologue).
type fleetRecorder struct {
	tr      *tracer
	parent  int
	last    time.Time
	lastAt  sim.Time
	arrived map[string]arrival
	// placeUS holds the arrival-to-placement wall time of every VM placed
	// at the simulated instant it arrived; later placements waited on
	// retries and include host advance.
	placeUS         []float64
	decide, advance time.Duration
}

func (r *fleetRecorder) event(ev cluster.Event) {
	at := now()
	if ev.At == r.lastAt {
		r.decide += at.Sub(r.last)
	} else {
		r.advance += at.Sub(r.last)
	}
	r.last, r.lastAt = at, ev.At
	//vet:partial only arrivals and placements delimit a decision; every kind is timed above
	switch ev.Kind {
	case cluster.EventVMArrive:
		r.arrived[ev.VM] = arrival{wall: at, at: ev.At}
		return
	case cluster.EventVMPlace:
	default:
		return
	}
	a, ok := r.arrived[ev.VM]
	if !ok {
		return
	}
	delete(r.arrived, ev.VM)
	if a.at == ev.At {
		r.placeUS = append(r.placeUS, float64(at.Sub(a.wall).Nanoseconds())/1e3)
		r.tr.add(r.parent, "decision "+ev.VM, a.wall, at, "host", ev.Host)
	}
}
