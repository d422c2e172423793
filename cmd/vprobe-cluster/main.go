// Command vprobe-cluster simulates a multi-host cluster: VM arrivals and
// departures, Filter/Score placement, admission retries, and threshold-
// driven inter-host live migration, with an independent NUMA hypervisor
// simulation per host.
//
// Usage:
//
//	vprobe-cluster [flags]    (-h lists them)
//
// Each flag sets one field of a ClusterSpec — the document vprobe-serve
// accepts at /v1/clusters and vprobe-sim -spec runs — and the command runs
// it through vprobe.RunCluster, so the same settings give the same bytes
// from every front door. Values the spec rejects (a negative -rate, -gang
// without -gang-fraction, ...) fail with the spec's message. -topology
// names a preset or reads a machine file, as vprobe-topo -json prints
// one, into the spec's machine field; -arrivals-in replays a JSONL trace
// written by -arrivals-out as the spec's arrival_trace.
//
// Durations are wall-style ("90s", "5m") and measured in simulated time.
// Results are byte-identical for a fixed seed at every -workers value,
// and with -metrics, -spans or -chrome on or off: -metrics samples
// cluster-level and per-host series in virtual time and exports
// Prometheus text exposition plus a .jsonl time series next to it; -spans
// records the placement flight recorder (VM lifecycle spans with
// per-plugin filter/score provenance and migration, preemption, gang and
// backfill chains) as JSONL for vprobe-explain, and -chrome as Chrome
// trace-event JSON for Perfetto. -place-check cross-validates every
// placement of the incremental engine against a full rescan and fails the
// run on the first divergence. SIGINT or SIGTERM cancels the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"vprobe"
	"vprobe/cmd/internal/specrun"
	"vprobe/internal/numa"
	"vprobe/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the cluster, writes the
// report to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vprobe-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Every spec flag writes its field directly; the duration flags
	// default to the values already set here.
	s := vprobe.ClusterSpec{
		MeanLifetime:    vprobe.SpecDuration(60 * time.Second),
		Horizon:         vprobe.SpecDuration(300 * time.Second),
		RebalancePeriod: vprobe.SpecDuration(10 * time.Second),
	}
	fs.IntVar(&s.Hosts, "hosts", 4, "number of hosts")
	topology := fs.String("topology", "xeon-e5620", "NUMA preset name or machine JSON file (vprobe-topo -json)")
	fs.StringVar(&s.Scheduler, "sched", "credit", fmt.Sprintf("per-host scheduler (%s)", strings.Join(spec.Schedulers(), ", ")))
	fs.StringVar(&s.Policy, "policy", "numa", fmt.Sprintf("placement policy (%s)", strings.Join(spec.Policies(), ", ")))
	fs.Uint64Var(&s.Seed, "seed", 1, "simulation seed")
	fs.Float64Var(&s.ArrivalsPerSecond, "rate", 0.35, "VM arrivals per simulated second")
	fs.Var(&s.MeanLifetime, "lifetime", "mean VM lifetime (simulated `duration`)")
	fs.Var(&s.Horizon, "horizon", "simulated `duration` of the run")
	fs.IntVar(&s.Workers, "workers", 0, "parallel host-advance workers (0 = GOMAXPROCS)")
	fs.StringVar(&s.Mix, "mix", "mixed", fmt.Sprintf("workload mix (%s)", strings.Join(spec.Mixes(), ", ")))
	fs.Var(&s.RebalancePeriod, "rebalance", "rebalancer period as a `duration` (negative disables)")
	fs.BoolVar(&s.Preempt, "preempt", false, "let high-priority arrivals evict lower-priority VMs")
	fs.BoolVar(&s.Gang, "gang", false, "admit gang arrivals all-or-nothing (needs -gang-fraction)")
	fs.Float64Var(&s.GangFraction, "gang-fraction", 0, "fraction of arrivals that form gangs [0,1]")
	fs.IntVar(&s.GangSize, "gang-size", 3, "VMs per gang")
	fs.BoolVar(&s.Backfill, "backfill", false, "backfill small VMs past a blocked queue head")
	fs.Var(&s.DeschedulePeriod, "deschedule", "descheduler (defrag) period as a `duration` (0 disables)")
	fs.StringVar(&s.ArrivalProcess, "arrival-process", "poisson",
		fmt.Sprintf("arrival generator (%s)", strings.Join(spec.ArrivalProcesses(), ", ")))
	fs.Var(&s.DiurnalPeriod, "diurnal-period", "diurnal sinusoid period as a `duration` (0 = horizon)")
	fs.Float64Var(&s.DiurnalAmplitude, "diurnal-amplitude", 0, "diurnal rate swing [0,1] (0 = default 0.6)")
	fs.Var(&s.FlashAt, "flash-at", "flash-crowd start as a `duration` (0 = horizon/3)")
	fs.Var(&s.FlashDuration, "flash-duration", "flash-crowd length as a `duration` (0 = horizon/10)")
	fs.Float64Var(&s.FlashFactor, "flash-factor", 0, "flash-crowd rate multiplier (0 = default 8)")
	arrivalsIn := fs.String("arrivals-in", "", "replay arrivals from this JSONL trace (sets -arrival-process trace)")
	fs.BoolVar(&s.PlaceCheck, "place-check", false, "cross-validate every placement against a full rescan")
	fs.Float64Var(&s.LLCPressureLimit, "llc-limit", 50, "per-socket LLC pressure migration threshold")

	ex := specrun.Exports{}
	trace := fs.Bool("trace", false, "stream cluster events to stderr")
	fs.StringVar(&ex.Arrivals, "arrivals-out", "", "export the run's arrivals to this JSONL trace")
	fs.StringVar(&ex.Spans, "spans", "", "write the placement span flight recorder as JSONL to this file (vprobe-explain input)")
	fs.StringVar(&ex.Chrome, "chrome", "", "write the spans as Chrome trace-event JSON to this file")
	fs.StringVar(&ex.Metrics, "metrics", "", "write Prometheus metrics to this file (plus a .jsonl time series next to it)")
	fs.DurationVar(&ex.MetricsEvery, "metrics-every", time.Second, "virtual-time sampling period for -metrics")
	fs.StringVar(&ex.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&ex.MemProfile, "memprofile", "", "write a heap profile (taken after the run) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *trace {
		ex.Events = stderr
	}

	err := setMachine(&s, *topology)
	if err == nil && *arrivalsIn != "" {
		err = setArrivals(&s, *arrivalsIn)
	}
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = specrun.Run(ctx, s, ex, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// setMachine sets the spec's topology preset, or copies a machine file
// into its machine field.
func setMachine(s *vprobe.ClusterSpec, nameOrPath string) error {
	top, err := numa.Resolve(nameOrPath)
	if err != nil {
		return err
	}
	if slices.Contains(spec.Topologies(), nameOrPath) {
		s.Topology = nameOrPath
	} else {
		m := numa.Export(top)
		s.Machine = &m
	}
	return nil
}

// setArrivals makes the spec replay the JSONL arrival trace at path.
func setArrivals(s *vprobe.ClusterSpec, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := spec.ReadArrivalTrace(f)
	if err != nil {
		return fmt.Errorf("-arrivals-in %s: %w", path, err)
	}
	s.ArrivalProcess = "trace"
	s.ArrivalTrace = recs
	return nil
}
