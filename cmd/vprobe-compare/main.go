// Command vprobe-compare runs the same workload under several schedulers
// and prints a side-by-side comparison — the quickest way to explore how a
// custom VM/workload mix responds to each policy.
//
// Usage:
//
//	vprobe-compare [-w "soplex:4"] [-i "soplex:4"] [-sched credit,vprobe,lb] \
//	               [-seeds 3] [-scale 0.5] [-horizon 600]
//
// -w is the measured VM's workload spec, -i the interfering VM's (see
// internal/workload.ParseSpec for the syntax). A third VM always runs
// eight hungry loops, as in the paper's standard setup. -topo names the
// machine preset (xeon-e5620, four-node, uma).
//
// The (scheduler, seed) grid runs in parallel across -workers OS threads;
// the table is identical at every worker count. SIGINT/SIGTERM cancels.
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

	"vprobe/internal/experiments"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "vprobe-compare:", err)
		os.Exit(1)
	}
}

// run parses args, runs the (scheduler, seed) grid and writes the table
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vprobe-compare", flag.ContinueOnError)
	wSpec := fs.String("w", "soplex:4", "measured VM workload spec")
	iSpec := fs.String("i", "soplex:4", "interfering VM workload spec")
	schedList := fs.String("sched", "credit,vprobe,vcpu-p,lb,brm", "schedulers to compare")
	seeds := fs.Int("seeds", 3, "seeds to average over")
	scale := fs.Float64("scale", 0.5, "workload scale factor")
	horizon := fs.Float64("horizon", 1200, "virtual-time cap in seconds")
	topoName := fs.String("topo", "xeon-e5620", "topology preset name ("+strings.Join(spec.Topologies(), ", ")+")")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least 1", *seeds)
	}
	if !slices.Contains(spec.Topologies(), *topoName) {
		return fmt.Errorf("-topo %q: not a topology preset (have %s)", *topoName, strings.Join(spec.Topologies(), ", "))
	}
	apps1, err := parseApps(*wSpec)
	if err != nil {
		return err
	}
	apps2, err := parseApps(*iSpec)
	if err != nil {
		return err
	}
	var kinds []sched.Kind
	for _, name := range strings.Split(*schedList, ",") {
		kind := sched.Kind(strings.TrimSpace(name))
		if kind == "" {
			return fmt.Errorf("-sched %q: empty scheduler name", *schedList)
		}
		if _, err := sched.New(kind); err != nil {
			return err
		}
		kinds = append(kinds, kind)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	byKind, err := experiments.RunSchedulers(ctx, *topoName, "", apps1, apps2, experiments.Options{
		Seed:       1,
		Scale:      *scale,
		Horizon:    sim.DurationFromSeconds(*horizon),
		Schedulers: kinds,
		Repeats:    *seeds,
		Workers:    *workers,
	})
	if err != nil {
		return err
	}

	t := metrics.NewTable(
		fmt.Sprintf("workload %q vs interference %q (%d seeds, scale %.2f)",
			*wSpec, *iSpec, *seeds, *scale),
		"scheduler", "exec(s)", "remote", "page-remote", "moves/app", "overhead")
	for _, kind := range kinds {
		var execs, remotes, pages, moves, overheads []float64
		for _, r := range byKind[kind] {
			execs = append(execs, metrics.AvgExecSeconds(r.Runs))
			remotes = append(remotes, metrics.AvgRemoteRatio(r.Runs))
			pages = append(pages, metrics.AvgPageRemoteRatio(r.Runs))
			moves = append(moves, movesPerApp(r.Runs))
			overheads = append(overheads, r.Overhead)
		}
		t.AddRow(string(kind),
			fmt.Sprintf("%.2f", sim.Mean(execs)),
			metrics.Pct(sim.Mean(remotes)),
			metrics.Pct(sim.Mean(pages)),
			fmt.Sprintf("%.1f", sim.Mean(moves)),
			fmt.Sprintf("%.5f%%", 100*sim.Mean(overheads)))
	}
	_, err = io.WriteString(stdout, t.String())
	return err
}

// maxApps is the most apps one VM's spec may name: the standard setup's
// VMs have eight VCPUs, one app each.
const maxApps = 8

// parseApps parses a workload spec into the apps of one VM.
func parseApps(s string) ([]spec.AppV1, error) {
	refs, err := workload.ParseSpec(s, maxApps)
	if err != nil {
		return nil, err
	}
	apps := make([]spec.AppV1, len(refs))
	for i, r := range refs {
		apps[i] = spec.AppV1{Name: r.Name}
		if r.Load > 0 {
			apps[i] = spec.AppV1{Server: r.Name, Load: r.Load}
		}
	}
	return apps, nil
}

// movesPerApp is the mean node-move count over one run's apps.
func movesPerApp(runs []metrics.AppRun) float64 {
	var mv float64
	for _, r := range runs {
		mv += float64(r.NodeMoves)
	}
	if len(runs) > 0 {
		mv /= float64(len(runs))
	}
	return mv
}
