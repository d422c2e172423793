// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact), plus micro-benchmarks of the core
// algorithms. Figure benchmarks run the corresponding experiment at a
// reduced workload scale per iteration; the printed tables of the full
// harness come from `go run ./cmd/vprobe-sim`.
//
// Reported custom metrics:
//
//	improvement_pct — vProbe's execution-time gain over Credit
//	remote_pct      — remote access ratio of the relevant configuration
package vprobe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"vprobe"

	"vprobe/internal/core"
	"vprobe/internal/experiments"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/perf"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
	"vprobe/internal/telemetry"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// benchOpts keeps one benchmark iteration around a second of wall time.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.25, Repeats: 1, Seed: 1}
}

func runExperiment(b *testing.B, id string, opts experiments.Options) *experiments.Result {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = e.RunContext(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1 regenerates the platform description (paper Table I).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "table1", benchOpts())
}

// BenchmarkFig1 regenerates the Credit remote-access ratios (paper Fig. 1).
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	res := runExperiment(b, "fig1", benchOpts())
	b.ReportMetric(100*res.Get("page-remote/credit", "soplex"), "soplex_page_remote_pct")
}

// BenchmarkFig3 regenerates the bound calibration (paper Fig. 3).
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	res := runExperiment(b, "fig3", benchOpts())
	b.ReportMetric(res.Get("rpti/solo", "libquantum"), "libquantum_rpti")
}

// BenchmarkFig4 regenerates the SPEC comparison (paper Fig. 4).
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	res := runExperiment(b, "fig4", opts)
	b.ReportMetric(100*(1-res.Get("exec/vprobe", "soplex")), "soplex_improvement_pct")
}

// BenchmarkFig5 regenerates the NPB comparison (paper Fig. 5).
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	res := runExperiment(b, "fig5", opts)
	b.ReportMetric(100*(1-res.Get("exec/vprobe", "sp")), "sp_improvement_pct")
}

// BenchmarkFig6 regenerates the memcached sweep (paper Fig. 6).
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	res := runExperiment(b, "fig6", opts)
	b.ReportMetric(100*(1-res.Get("exec/vprobe", "80")), "c80_improvement_pct")
}

// BenchmarkFig7 regenerates the Redis sweep (paper Fig. 7).
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	opts.Horizon = 60 * sim.Second
	res := runExperiment(b, "fig7", opts)
	base := res.Get("throughput/credit", "2000")
	if base > 0 {
		b.ReportMetric(100*(res.Get("throughput/vprobe", "2000")/base-1), "conn2000_gain_pct")
	}
}

// BenchmarkFig8 regenerates the sampling-period sweep (paper Fig. 8).
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	res := runExperiment(b, "fig8", benchOpts())
	b.ReportMetric(res.Get("exec/vprobe", "1.000s"), "exec_at_1s_sec")
}

// BenchmarkTable3 regenerates the overhead measurement (paper Table III).
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	res := runExperiment(b, "table3", benchOpts())
	b.ReportMetric(res.Get("overhead/vprobe", "4"), "overhead_4vm_pct")
}

// BenchmarkAblateAffinity regenerates the Eq. 1 ablation.
func BenchmarkAblateAffinity(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "ablate-affinity", benchOpts())
}

// BenchmarkFourNode regenerates the 4-node extension experiment.
func BenchmarkFourNode(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fournode", benchOpts())
}

// --- Parallel harness benchmarks ---------------------------------------

// suiteBenchIDs is the repo benchmark's paper-batch experiment set, whose
// experiments share cells: 26 of its simulations at three repeats (fig1's,
// fig8's 1 s point, the ablations' Credit and vProbe rows, the bound
// sweep's (3, 20) point) repeat fig4/fig5 runs and run once.
var suiteBenchIDs = []string{"table1", "fig1", "fig3", "fig4", "fig5", "fig8", "table3",
	"ablate-affinity", "ablate-dynamic", "ablate-pagemig", "fournode", "sensitivity-bounds"}

func suiteBenchOpts(workers int) experiments.Options {
	opts := benchOpts()
	opts.Scale = 0.1
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	opts.Workers = workers
	return opts
}

func runSuiteBench(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		items, err := experiments.RunSuite(context.Background(), suiteBenchIDs,
			suiteBenchOpts(workers))
		if err != nil {
			b.Fatal(err)
		}
		for _, item := range items {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}

// BenchmarkSuiteSequential runs the suite on one worker — the baseline for
// the parallel harness speedup (compare with BenchmarkSuiteParallel).
func BenchmarkSuiteSequential(b *testing.B) {
	b.ReportAllocs()
	runSuiteBench(b, 1)
}

// BenchmarkSuiteParallel runs the same suite on GOMAXPROCS workers. Results
// are byte-identical to the sequential run; on a 4-core machine wall time
// drops by well over 2x because every (workload, scheduler, seed) scenario
// is an independent simulation.
func BenchmarkSuiteParallel(b *testing.B) {
	b.ReportAllocs()
	runSuiteBench(b, 0)
}

// --- Micro-benchmarks of the core algorithms ---------------------------

// BenchmarkPartition measures Algorithm 1 on a 24-VCPU, 4-node input,
// on one reused scratch as vProbe's period pass runs it.
func BenchmarkPartition(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(1)
	stats := make([]core.Stat, 24)
	for i := range stats {
		typ := core.TypeT
		if rng.Intn(2) == 0 {
			typ = core.TypeFI
		}
		stats[i] = core.Stat{
			VCPU: i, Pressure: 5 + rng.Float64()*25,
			Affinity: numa.NodeID(rng.Intn(4)), Type: typ,
		}
	}
	var scratch core.PartitionScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Partition(stats, 4)
	}
}

// BenchmarkPickSteal measures Algorithm 2 on a loaded 4-node machine.
func BenchmarkPickSteal(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(2)
	queues := make([][]core.QueueView, 4)
	for n := range queues {
		var views []core.QueueView
		for c := 0; c < 4; c++ {
			var run []core.RunnableVCPU
			for v := 0; v < 3; v++ {
				run = append(run, core.RunnableVCPU{
					VCPU: n*100 + c*10 + v, Pressure: rng.Float64() * 30,
				})
			}
			views = append(views, core.QueueView{
				CPU: numa.CPUID(n*4 + c), Workload: rng.Intn(5), Runnable: run,
			})
		}
		queues[n] = views
	}
	order := []numa.NodeID{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PickSteal(0, order, queues)
	}
}

// BenchmarkPerfExecute measures one quantum evaluation of the performance
// model (the simulation's inner loop).
func BenchmarkPerfExecute(b *testing.B) {
	b.ReportAllocs()
	s := perf.NewSystem(numa.XeonE5620())
	app := workload.Soplex()
	req := perf.Request{
		Profile:      app,
		Phase:        app.PhaseAt(0),
		Quantum:      30 * sim.Millisecond,
		RunNode:      0,
		PageDist:     mem.Dist{0.7, 0.3},
		CoRunnerRPTI: 40,
		ColdLines:    5000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Execute(req)
	}
}

// BenchmarkQuantumHotPath isolates one dispatch→endQuantum cycle: a single
// endless CPU-bound VCPU on an otherwise idle host, stepped one timeslice
// per iteration after the simulation reaches steady state. allocs/op is
// the per-quantum allocation count the refactor pins at zero (also
// enforced by TestQuantumSteadyStateZeroAlloc in internal/xen).
func BenchmarkQuantumHotPath(b *testing.B) {
	benchQuantumHotPath(b, false)
}

// BenchmarkQuantumHotPathTelemetry is the same cycle with the full metric
// set attached and the sampler ticking — the overhead delta against
// BenchmarkQuantumHotPath is the cost of telemetry on the hot path, and
// allocs/op must stay 0.
func BenchmarkQuantumHotPathTelemetry(b *testing.B) {
	benchQuantumHotPath(b, true)
}

func benchQuantumHotPath(b *testing.B, withTele bool) {
	b.ReportAllocs()
	cfg := xen.DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := xen.New(numa.XeonE5620(), sched.MustNew(sched.KindCredit), cfg)
	vm, err := h.CreateDomain("vm", 1024, 1, mem.PolicyStripe)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.AttachApp(vm, 0, workload.Hungry()); err != nil {
		b.Fatal(err)
	}
	if withTele {
		s := telemetry.NewSampler(telemetry.NewRegistry(), sim.Second)
		xen.AttachTelemetry(h, s)
		s.Start(h.Engine)
	}
	h.Run(sim.Second) // warm up: boot, first touch, buffer growth
	next := sim.Time(sim.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = next.Add(cfg.Timeslice)
		h.Engine.RunUntil(next)
	}
}

// BenchmarkSimulationSecond measures simulating one virtual second of the
// full standard scenario under vProbe (events/sec of the engine).
func BenchmarkSimulationSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := xen.New(numa.XeonE5620(), sched.MustNew(sched.KindVProbe), xen.DefaultConfig())
		vm, err := h.CreateDomain("vm", 8*1024, 8, mem.PolicyStripe)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := h.AttachApp(vm, j, workload.Soplex()); err != nil {
				b.Fatal(err)
			}
		}
		for j := 4; j < 8; j++ {
			if _, err := h.AttachApp(vm, j, workload.GuestIdle()); err != nil {
				b.Fatal(err)
			}
		}
		h.Run(sim.Second)
	}
}

// BenchmarkSpecCompile measures the serve layer's request setup cost:
// decoding a ScenarioV1 from JSON, validating it, and compiling it onto a
// ready-to-run Simulator. This is pure front-door overhead — the
// simulation itself never starts — so allocations here are per-request
// daemon cost.
func BenchmarkSpecCompile(b *testing.B) {
	doc := []byte(`{
	  "scheduler": "vprobe",
	  "horizon": "30s",
	  "vms": [
	    {"name": "vm0", "memory_mb": 4096, "vcpus": 4,
	     "apps": [{"name": "soplex"}, {"name": "mcf"}, {"server": "memcached", "load": 64}]},
	    {"name": "vm1", "memory_mb": 2048, "vcpus": 2,
	     "apps": [{"name": "milc"}, {"server": "redis", "load": 8}]}
	  ]
	}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sp spec.ScenarioV1
		if err := json.Unmarshal(doc, &sp); err != nil {
			b.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// servedScenarioSpec is the repo benchmark's serve-mix spec shape: a
// 0.5 s two-VM scenario.
const servedScenarioSpec = `{
  "scheduler": "vprobe", "seed": 7, "horizon": "500ms",
  "vms": [
    {"name": "vm1", "memory_mb": 4096, "vcpus": 4, "memory": "stripe",
     "fill_guest_idle": true, "apps": [{"name": "soplex"}, {"name": "mcf"}]},
    {"name": "vm2", "memory_mb": 2048, "vcpus": 4,
     "apps": [{"name": "milc"}, {"name": "lu"}]}
  ]
}`

// runServedScenario does what a vprobe-serve cache miss does past the
// HTTP layer: compile with an event log and telemetry attached, run, and
// render the report the server stores. The run seals both collectors:
// the events stay in the log and the numbers in the telemetry until they
// are read, as a served run keeps them.
func runServedScenario(b *testing.B, sp spec.ScenarioV1) (*vprobe.EventLog, *vprobe.Telemetry) {
	log := new(vprobe.EventLog)
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: 100 * time.Millisecond})
	sim, horizon, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{
		Events:    log,
		Telemetry: tele,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sim.RunContext(context.Background(), horizon)
	if err != nil {
		b.Fatal(err)
	}
	servedBytes = len(rep.String())
	return log, tele
}

// BenchmarkServedScenario measures a vprobe-serve cache miss past the
// HTTP layer on the serve-mix spec shape (see runServedScenario).
func BenchmarkServedScenario(b *testing.B) {
	var sp spec.ScenarioV1
	if err := json.Unmarshal([]byte(servedScenarioSpec), &sp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runServedScenario(b, sp)
	}
}

// BenchmarkServedTelemetryRead measures GET /v1/runs/{id}/telemetry and
// /metrics on a done run past the HTTP layer: rendering a stored
// serve-mix run's sealed telemetry as JSONL and as Prometheus text.
func BenchmarkServedTelemetryRead(b *testing.B) {
	var sp spec.ScenarioV1
	if err := json.Unmarshal([]byte(servedScenarioSpec), &sp); err != nil {
		b.Fatal(err)
	}
	_, tele := runServedScenario(b, sp)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tele.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
		if err := tele.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
	servedBytes = buf.Len()
}

// BenchmarkServedEventsRead measures GET /v1/runs/{id}/events on a done
// run past the HTTP layer: rendering a stored serve-mix run's whole event
// log as JSONL.
func BenchmarkServedEventsRead(b *testing.B) {
	var sp spec.ScenarioV1
	if err := json.Unmarshal([]byte(servedScenarioSpec), &sp); err != nil {
		b.Fatal(err)
	}
	log, _ := runServedScenario(b, sp)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = log.AppendJSONL(buf[:0], 0, log.Len())
	}
	servedBytes = len(buf)
}

// servedBytes keeps the served benchmarks' renderings live.
var servedBytes int
