// Command vprobe-cluster simulates a multi-host cluster: VM arrivals and
// departures, Filter/Score placement, admission retries, and threshold-
// driven inter-host live migration, with an independent NUMA hypervisor
// simulation per host.
//
// Usage:
//
//	vprobe-cluster [-hosts n] [-topology name|file.json] [-sched policy]
//	               [-policy name] [-seed n] [-rate f] [-lifetime d]
//	               [-horizon d] [-workers n] [-mix name] [-rebalance d]
//	               [-llc-limit f] [-remote-limit f] [-trace]
//	               [-preempt] [-gang] [-gang-fraction f] [-gang-size n]
//	               [-backfill] [-deschedule d]
//	               [-arrival-process name] [-diurnal-period d]
//	               [-diurnal-amplitude f] [-flash-at d] [-flash-duration d]
//	               [-flash-factor f] [-arrivals-in file.jsonl]
//	               [-arrivals-out file.jsonl] [-place-check]
//	               [-spans file.jsonl] [-chrome file.json]
//	               [-metrics file.prom] [-metrics-every d]
//
// Durations are wall-style ("90s", "5m") and measured in simulated time.
// Results are byte-identical for a fixed seed at every -workers value —
// with or without -metrics, which samples cluster-level and per-host
// series in virtual time and exports Prometheus text exposition plus a
// .jsonl time series next to it. SIGINT or SIGTERM cancels the run.
//
// The arrival process defaults to Poisson at -rate; -arrival-process
// selects the diurnal sinusoid or flash-crowd generator, and
// -arrivals-in replays a JSONL trace (as written by -arrivals-out).
// -place-check cross-validates every placement decision of the
// incremental engine against a full rescan and fails the run on the
// first divergence.
//
// -spans records the placement flight recorder — VM lifecycle spans with
// per-plugin filter/score provenance, migration, preemption, gang, and
// backfill chains — as JSONL for vprobe-explain; -chrome exports the same
// spans as Chrome trace-event JSON for Perfetto. Recording never changes
// results: stdout stays byte-identical with spans on or off.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

func main() {
	hosts := flag.Int("hosts", 4, "number of hosts")
	topology := flag.String("topology", "xeon-e5620", "NUMA preset name or topology JSON file")
	schedName := flag.String("sched", "credit", fmt.Sprintf("per-host scheduler (%s)", strings.Join(kindNames(), ", ")))
	policy := flag.String("policy", "numa", fmt.Sprintf("placement policy (%s)", strings.Join(cluster.Policies(), ", ")))
	seed := flag.Uint64("seed", 1, "simulation seed")
	rate := flag.Float64("rate", 0.35, "VM arrivals per simulated second")
	lifetime := flag.Duration("lifetime", 60*time.Second, "mean VM lifetime (simulated)")
	horizon := flag.Duration("horizon", 300*time.Second, "simulated duration")
	workers := flag.Int("workers", 0, "parallel host-advance workers (0 = GOMAXPROCS)")
	mix := flag.String("mix", "mixed", "workload mix: mixed, batch, server")
	rebalance := flag.Duration("rebalance", 10*time.Second, "rebalancer period (negative disables)")
	preempt := flag.Bool("preempt", false, "let high-priority arrivals evict lower-priority VMs")
	gang := flag.Bool("gang", false, "admit gang arrivals all-or-nothing")
	gangFraction := flag.Float64("gang-fraction", 0, "fraction of arrivals that form gangs [0,1]")
	gangSize := flag.Int("gang-size", 3, "VMs per gang")
	backfill := flag.Bool("backfill", false, "backfill small VMs past a blocked queue head")
	deschedule := flag.Duration("deschedule", 0, "descheduler (defrag) period (0 disables)")
	arrivalProcess := flag.String("arrival-process", "poisson",
		fmt.Sprintf("arrival generator (%s)", strings.Join(cluster.ArrivalProcesses(), ", ")))
	diurnalPeriod := flag.Duration("diurnal-period", 0, "diurnal sinusoid period (0 = horizon)")
	diurnalAmplitude := flag.Float64("diurnal-amplitude", 0, "diurnal rate swing [0,1] (0 = default 0.6)")
	flashAt := flag.Duration("flash-at", 0, "flash-crowd start (0 = horizon/3)")
	flashDuration := flag.Duration("flash-duration", 0, "flash-crowd length (0 = horizon/10)")
	flashFactor := flag.Float64("flash-factor", 0, "flash-crowd rate multiplier (0 = default 8)")
	arrivalsIn := flag.String("arrivals-in", "", "replay arrivals from this JSONL trace (sets -arrival-process trace)")
	arrivalsOut := flag.String("arrivals-out", "", "export the run's arrivals to this JSONL trace")
	placeCheck := flag.Bool("place-check", false, "cross-validate every placement against a full rescan")
	llcLimit := flag.Float64("llc-limit", 50, "per-socket LLC pressure migration threshold")
	remoteLimit := flag.Float64("remote-limit", 0.45, "remote-access ratio migration threshold")
	trace := flag.Bool("trace", false, "stream cluster events to stderr")
	spansOut := flag.String("spans", "", "write the placement span flight recorder as JSONL to this file (vprobe-explain input)")
	chromeOut := flag.String("chrome", "", "write the spans as Chrome trace-event JSON to this file")
	metrics := flag.String("metrics", "", "write Prometheus metrics to this file (plus a .jsonl time series next to it)")
	metricsEvery := flag.Duration("metrics-every", time.Second, "virtual-time sampling period for -metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := cluster.Config{
		Hosts:             *hosts,
		Topology:          *topology,
		Scheduler:         sched.Kind(*schedName),
		Policy:            *policy,
		Seed:              *seed,
		ArrivalsPerSecond: *rate,
		MeanLifetime:      sim.Duration(lifetime.Microseconds()),
		Horizon:           sim.Duration(horizon.Microseconds()),
		Workers:           *workers,
		Mix:               *mix,
		LLCPressureLimit:  *llcLimit,
		RemoteRatioLimit:  *remoteLimit,
		Preempt:           *preempt,
		Gang:              *gang,
		GangFraction:      *gangFraction,
		GangSize:          *gangSize,
		Backfill:          *backfill,
		DeschedulePeriod:  sim.Duration(deschedule.Microseconds()),
		PlaceCheck:        *placeCheck,
		Arrival: cluster.ArrivalConfig{
			Process:          *arrivalProcess,
			DiurnalPeriod:    sim.Duration(diurnalPeriod.Microseconds()),
			DiurnalAmplitude: *diurnalAmplitude,
			FlashAt:          sim.Duration(flashAt.Microseconds()),
			FlashDuration:    sim.Duration(flashDuration.Microseconds()),
			FlashFactor:      *flashFactor,
		},
	}
	if *arrivalsIn != "" {
		f, err := os.Open(*arrivalsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		recs, err := cluster.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Arrival.Process = cluster.ArrivalTrace
		cfg.Arrival.Trace = recs
	}
	closeArrivals := func() error { return nil }
	if *arrivalsOut != "" {
		f, err := os.Create(*arrivalsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := bufio.NewWriter(f)
		closeArrivals = func() error {
			if err := enc.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		cfg.ArrivalSink = func(rec cluster.TraceArrival) {
			if err := cluster.WriteTrace(enc, []cluster.TraceArrival{rec}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *rebalance < 0 {
		cfg.RebalancePeriod = -1
	} else {
		cfg.RebalancePeriod = sim.Duration(rebalance.Microseconds())
	}
	var sampler *telemetry.Sampler
	if *metrics != "" {
		sampler = telemetry.NewSampler(telemetry.NewRegistry(),
			sim.Duration(metricsEvery.Microseconds()))
		cfg.Telemetry = sampler
	}
	var tracer *telemetry.Tracer
	if *spansOut != "" || *chromeOut != "" {
		tracer = telemetry.NewTracer(*seed, 0)
		cfg.Spans = tracer
	}
	if *trace {
		cfg.Events = func(ev cluster.Event) {
			fmt.Fprintf(os.Stderr, "%12v %-14s %-7s %-8s %s\n",
				time.Duration(ev.At)*time.Microsecond, ev.Kind, ev.Host, ev.VM, ev.Detail)
		}
	}

	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles, err := harness.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	rep, err := c.Run(ctx)
	// Profiles cover the simulation itself, not report formatting.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.String())
	if err := closeArrivals(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := writeSpans(tracer, *spansOut, *chromeOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "(%d spans recorded, %d dropped)\n",
			tracer.Len(), tracer.Dropped())
	}
	if sampler != nil {
		if err := writeMetrics(sampler, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "(%d samples -> %s, %s)\n",
			sampler.Rows(), *metrics, jsonlPath(*metrics))
	}
	// Timing goes to stderr: stdout stays byte-identical across runs.
	fmt.Fprintf(os.Stderr, "(simulated %v in %.1fs wall)\n", *horizon, time.Since(start).Seconds())
}

// jsonlPath places the time-series export next to the Prometheus file.
func jsonlPath(promPath string) string {
	return strings.TrimSuffix(promPath, ".prom") + ".jsonl"
}

// writeSpans exports the flight recorder to the requested files.
func writeSpans(t *telemetry.Tracer, spansPath, chromePath string) error {
	write := func(path string, export func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := export(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(spansPath, func(f *os.File) error { return t.WriteSpansJSONL(f) }); err != nil {
		return err
	}
	return write(chromePath, func(f *os.File) error { return t.WriteChromeTrace(f) })
}

// writeMetrics exports the sampler: final state as Prometheus text to
// promPath, time series as JSON Lines next to it.
func writeMetrics(s *telemetry.Sampler, promPath string) error {
	pf, err := os.Create(promPath)
	if err != nil {
		return err
	}
	if err := s.Registry().WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	jf, err := os.Create(jsonlPath(promPath))
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

func kindNames() []string {
	kinds := sched.PaperOrder()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}
