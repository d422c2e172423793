package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"vprobe"
	"vprobe/internal/experiments"
	"vprobe/internal/harness"
)

// paperConfig is a paper workload: a set of experiments run through
// experiments.RunSuite, plus the probe that splits one scenario's host
// time across the sim, xen, sched and core layers.
type paperConfig struct {
	name    string
	ids     []string
	scale   float64
	workers int
	probe   probeConfig
	// nominalPass is one pass's wall time on the reference machine (see
	// README.md); -seconds divided by it sets the pass count.
	nominalPass time.Duration
	// setupReps is how many times set-up is timed before each pass; the
	// median of all of them is setup_s.
	setupReps int
	// checkGolden compares outputs against golden.json (full size only).
	checkGolden bool
}

// paperBatch is the paper's CPU-bound artifacts: host time goes to the
// quantum-expiry path, and steals and block/wake events are rare.
var paperBatch = paperConfig{
	name: "paper-batch",
	ids: []string{"table1", "fig1", "fig3", "fig4", "fig5", "fig8", "table3",
		"ablate-affinity", "ablate-dynamic", "ablate-pagemig", "fournode", "sensitivity-bounds"},
	scale:   1.0,
	workers: 2,
	probe: probeConfig{
		rows: []probeRow{{
			name: "fig4-soplex",
			vm1:  apps(4, vprobe.AppSpec{Name: "soplex"}),
			vm2:  apps(4, vprobe.AppSpec{Name: "soplex"}),
		}},
		horizon: 60 * time.Second,
	},
	nominalPass: 6500 * time.Millisecond,
	setupReps:   67,
	checkGolden: true,
}

// paperServers is the memcached and Redis sweeps: the same layers as
// paper-batch, but the wake path and idle-PCPU stealing dominate.
var paperServers = paperConfig{
	name:    "paper-servers",
	ids:     []string{"fig6", "fig7"},
	scale:   1.0,
	workers: 2,
	probe: probeConfig{
		rows: []probeRow{
			{
				name: "fig6-c80",
				vm1:  apps(8, vprobe.AppSpec{Server: "memcached", Load: 80}),
				vm2:  apps(8, vprobe.AppSpec{Server: "memcached", Load: 80}),
			},
			{
				// The figure's VM2 runs four redis-benchmark load generators; the
				// catalog has no such app, so povray stands in as a
				// CPU-bound load with a small cache footprint.
				name: "fig7-2000",
				vm1:  apps(4, vprobe.AppSpec{Server: "redis", Load: 2000}),
				vm2:  apps(4, vprobe.AppSpec{Name: "povray"}),
			},
		},
		horizon: 30 * time.Second,
	},
	nominalPass: 7 * time.Second,
	setupReps:   67,
	checkGolden: true,
}

// suitePass is one RunSuite call over the workload's experiments.
type suitePass struct {
	wall, cpu time.Duration
	items     []experiments.SuiteItem
	digests   map[string]string
}

func runSuitePass(ctx context.Context, cfg paperConfig, seed uint64, sink harness.Sink) (*suitePass, error) {
	cpu0 := cpuTime()
	start := now()
	items, err := experiments.RunSuite(ctx, cfg.ids, experiments.Options{
		Seed:    seed,
		Scale:   cfg.scale,
		Workers: cfg.workers,
		Events:  sink,
	})
	p := &suitePass{wall: now().Sub(start), cpu: cpuTime() - cpu0, items: items, digests: map[string]string{}}
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	for _, it := range items {
		if it.Err == nil {
			p.digests[it.Experiment.ID] = digest([]byte(it.Result.String()))
		}
	}
	return p, nil
}

// check counts the pass's experiments and fails each one that errored or
// whose output differs from the reference pass or the golden digest.
func (p *suitePass) check(cfg paperConfig, seed uint64, ref *suitePass, res *result) {
	for _, it := range p.items {
		id := it.Experiment.ID
		res.attempted++
		d, ok := p.digests[id]
		switch {
		case !ok:
			res.fail("%s: %v", id, it.Err)
		case ref != nil && ref.digests[id] != d:
			res.fail("%s: output differs from the run's first pass", id)
		case cfg.checkGolden:
			if want, ok := goldenDigest(cfg.name, seed, id); ok && want != d {
				res.fail("%s: output digest %s, golden %s", id, d[:12], want[:12])
			}
		}
	}
}

func runPaper(ctx context.Context, cfg paperConfig, rc runConfig) (*result, error) {
	res := newResult()
	var setup setupClock
	timeSetup := func() error {
		return setup.measure(cfg.setupReps, func(bool) error { return compileProbe(cfg.probe, rc.seed) })
	}
	if rc.trace {
		if err := timeSetup(); err != nil {
			return nil, err
		}
		return res, tracePaper(ctx, cfg, rc, res)
	}
	var first *suitePass
	var walls, cpus []float64
	for i := passes(rc.seconds, cfg.nominalPass); i > 0; i-- {
		if err := timeSetup(); err != nil {
			return nil, err
		}
		p, err := runSuitePass(ctx, cfg, rc.seed, nil)
		if err != nil {
			return nil, err
		}
		p.check(cfg, rc.seed, first, res)
		if first == nil {
			first = p
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	res.note("pass wall_s %v cpu_s %v", walls, cpus)
	res.values["setup_s"] = setup.median()
	res.values["wall_s"] = median(walls)
	res.values["cpu_s"] = median(cpus)
	res.note("digests %s", digestNote(first.digests))
	return res, nil
}

// tracePaper runs one plain pass, one pass with a progress-event recorder,
// and the probe; it checks both passes agree and reports per-layer
// metrics.
func tracePaper(ctx context.Context, cfg paperConfig, rc runConfig, res *result) error {
	plain, err := runSuitePass(ctx, cfg, rc.seed, nil)
	if err != nil {
		return err
	}
	plain.check(cfg, rc.seed, nil, res)

	tr := newTracer()
	root := tr.begin(0, "workload "+cfg.name)
	rec := &suiteRecorder{tr: tr, start: map[string]time.Time{}, remaining: len(cfg.ids), workers: harness.Workers(cfg.workers, len(cfg.ids))}
	rec.parent = tr.begin(root, "suite pass")
	traced, err := runSuitePass(ctx, cfg, rc.seed, rec)
	if err != nil {
		return err
	}
	tr.end(rec.parent)
	traced.check(cfg, rc.seed, plain, res)

	st, err := runProbe(ctx, cfg.probe, rc.seed, tr, root, res)
	if err != nil {
		return err
	}
	tr.end(root)
	path, err := tr.write(rc.traceDir)
	if err != nil {
		return err
	}
	res.note("spans written to %s", path)

	v := res.values
	for _, it := range traced.items {
		v["experiments."+it.Experiment.ID+".wall_s"] = it.Wall.Seconds()
	}
	v["harness.scenarios"] = float64(rec.scenarios)
	simS := float64(rec.simMicros) / 1e6
	v["harness.sim_s"] = simS
	v["harness.host_ms_per_sim_s"] = ratio(float64(traced.cpu.Milliseconds()), simS)
	v["harness.tail_s"] = rec.tail(traced.wall)
	st.set(v)
	v["paper_gap_pp"] = paperGap(cfg.name, plain.items)
	v["trace.overhead_ratio"] = ratio(traced.wall.Seconds(), plain.wall.Seconds())
	v["unexplained_share"] = 1 - ratio(rec.covered().Seconds(), traced.wall.Seconds())
	return nil
}

// suiteRecorder turns harness progress events into experiment spans and
// the harness metrics. Workers emit concurrently, hence the mutex.
type suiteRecorder struct {
	mu        sync.Mutex
	tr        *tracer
	parent    int
	start     map[string]time.Time
	intervals [][2]time.Time
	scenarios int
	simMicros int64
	// remaining counts unfinished experiments; tailStart is when it first
	// fell below the worker count, leaving a worker idle to the end.
	remaining, workers int
	tailStart          time.Time
	began              time.Time
}

func (r *suiteRecorder) Emit(ev harness.Event) {
	at := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	//vet:partial only the events that bound experiments and scenarios matter here
	switch ev.Kind {
	case harness.EventSuiteStarted:
		r.began = at
	case harness.EventExperimentStarted:
		r.start[ev.Experiment] = at
	case harness.EventScenarioFinished:
		r.scenarios++
		r.simMicros += ev.SimMicros
	case harness.EventExperimentFinished:
		start := r.start[ev.Experiment]
		r.intervals = append(r.intervals, [2]time.Time{start, at})
		r.tr.add(r.parent, "experiment "+ev.Experiment, start, at,
			"sim_s", fmt.Sprintf("%.3f", float64(ev.SimMicros)/1e6))
		r.remaining--
		if r.remaining < r.workers && r.tailStart.IsZero() {
			r.tailStart = at
		}
	}
}

// tail is the time from the straggler point to the end of the pass.
func (r *suiteRecorder) tail(wall time.Duration) float64 {
	if r.tailStart.IsZero() {
		return 0
	}
	return (wall - r.tailStart.Sub(r.began)).Seconds()
}

// covered is the time at least one experiment was running.
func (r *suiteRecorder) covered() time.Duration {
	iv := append([][2]time.Time(nil), r.intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var end time.Time
	for _, in := range iv {
		switch {
		case end.Before(in[0]):
			total += in[1].Sub(in[0])
			end = in[1]
		case end.Before(in[1]):
			total += in[1].Sub(end)
			end = in[1]
		}
	}
	return total
}

// paperGap is the mean absolute gap, in percentage points, between the
// figures the suite measured and the paper's published ones.
func paperGap(workload string, items []experiments.SuiteItem) float64 {
	refs := paperRefs[workload]
	byID := map[string]*experiments.Result{}
	for _, it := range items {
		if it.Err == nil {
			byID[it.Experiment.ID] = it.Result
		}
	}
	var sum float64
	n := 0
	for _, ref := range refs {
		r := byID[ref.Experiment]
		if r == nil {
			continue
		}
		v := r.Get(ref.Series, ref.Label)
		var measured float64
		switch ref.Kind {
		case "reduction":
			measured = 100 * (1 - v)
		case "percent":
			measured = 100 * v
		case "gain":
			measured = 100 * (ratio(v, r.Get(ref.BaseSeries, ref.Label)) - 1)
		default:
			continue
		}
		sum += math.Abs(measured - ref.PaperPct)
		n++
	}
	return ratio(sum, float64(n))
}
