package experiments

import (
	"fmt"

	"vprobe/internal/metrics"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// memcachedRequestTarget is the per-thread request count of one Fig. 6
// test at Scale = 1. The paper runs memslap for 50,000 iterations; the
// harness scales the target so one run spans many sampling periods (the
// mechanisms act at 1 s granularity), preserving the sweep's shape.
const memcachedRequestTarget = 250000

// planFig6 reproduces the memcached experiment: eight server worker
// threads in VM1 and VM2 each, concurrency swept 16..112, execution time
// of a fixed request batch reported (normalized to Credit).
func planFig6(opts Options) plan {
	opts = opts.normalized()
	var ws []workloadApps
	for conc := 16; conc <= 112; conc += 16 {
		app := spec.AppV1{Server: "memcached", Load: conc, Requests: memcachedRequestTarget}
		ws = append(ws, workloadApps{fmt.Sprintf("%d", conc), replicate(app, 8), replicate(app, 8)})
	}
	return plan{cells: comparisonCells("memcached-", ws, opts), assemble: func(outs []any) *Result {
		r := &Result{ID: "fig6", Title: "Memcached under five schedulers (paper Fig. 6)"}
		addNormalizedFigure(r, "Fig. 6", names(ws), byWorkload(ws, outs, opts), opts, true)
		return r
	}}
}

// planFig7 reproduces the Redis experiment: four redis servers in VM1
// against four benchmark drivers in VM2, connections swept 2000..10000.
// Throughput is requests served per second over a fixed window of 20% of
// the option horizon (servers run open-ended; the paper fixes total
// requests instead, equivalent up to the metric's units), and the access
// panels compare accesses per served request, normalized to Credit.
func planFig7(opts Options) plan {
	opts = opts.normalized()
	wopts := opts
	if w := 200 * opts.Horizon / 1000; w < wopts.Horizon {
		wopts.Horizon = w
	}
	var ws []workloadApps
	for conn := 2000; conn <= 10000; conn += 2000 {
		// Client tools are CPU-bound load generators.
		ws = append(ws, workloadApps{fmt.Sprintf("%d", conn),
			replicate(spec.AppV1{Server: "redis", Load: conn}, 4), named("redis-benchmark", 4)})
	}
	return plan{cells: comparisonCells("redis-", ws, wopts), assemble: func(outs []any) *Result {
		r := &Result{ID: "fig7", Title: "Redis under five schedulers (paper Fig. 7)"}
		base := baselineKind(opts)
		labels := names(ws)
		byLabel := byWorkload(ws, outs, opts)

		tput := metrics.NewTable("Fig. 7(a) Average Throughput (req/s)",
			append([]string{"connections"}, schedColumns(opts)...)...)
		for _, label := range labels {
			cells := []string{label}
			for _, k := range opts.Schedulers {
				var thrs []float64
				for _, so := range byLabel[label][k] {
					if secs := so.End.Seconds(); secs > 0 {
						thrs = append(thrs, metrics.SumRequests(so.Runs)/secs)
					}
				}
				thr := sim.Mean(thrs)
				r.Set("throughput/"+schedLabel(k), label, thr)
				cells = append(cells, fmt.Sprintf("%.0f", thr))
			}
			tput.AddRow(cells...)
		}
		tput.AddNote("higher is better; paper's peak gain: +26.0%% vs Credit at 2000 connections")
		r.Tables = append(r.Tables, tput)

		// Panels (b) and (c): normalized total/remote accesses.
		for _, panel := range []struct{ name, series string }{
			{"Fig. 7(b) Normalized Total Memory Accesses (per request)", "total"},
			{"Fig. 7(c) Normalized Remote Memory Accesses (per request)", "remote"},
		} {
			t := metrics.NewTable(panel.name, append([]string{"connections"}, schedColumns(opts)...)...)
			for _, label := range labels {
				byKind := byLabel[label]
				cells := []string{label}
				for _, k := range opts.Schedulers {
					var ratios []float64
					for sidx, so := range byKind[k] {
						baseRuns := byKind[base][sidx].Runs
						// Fixed-window runs serve different request counts;
						// compare accesses per served request.
						req, baseReq := metrics.SumRequests(so.Runs), metrics.SumRequests(baseRuns)
						if req <= 0 || baseReq <= 0 {
							continue
						}
						var v, baseVal float64
						if panel.series == "total" {
							v, baseVal = metrics.SumTotal(so.Runs)/req, metrics.SumTotal(baseRuns)/baseReq
						} else {
							v, baseVal = metrics.SumRemote(so.Runs)/req, metrics.SumRemote(baseRuns)/baseReq
						}
						if baseVal > 0 {
							ratios = append(ratios, v/baseVal)
						}
					}
					norm := sim.Mean(ratios)
					r.Set(panel.series+"/"+schedLabel(k), label, norm)
					cells = append(cells, metrics.F(norm))
				}
				t.AddRow(cells...)
			}
			t.AddNote("normalized to %s = 1.0", base)
			r.Tables = append(r.Tables, t)
		}
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "fig6",
		Title: "Memcached concurrency sweep",
		Paper: "Fig. 6: vProbe best; peak +31.3% at 80 calls; LB>VCPU-P at 16-32, crossover after",
		plan:  planFig6,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Redis connection sweep",
		Paper: "Fig. 7: vProbe best; +26.0% at 2000 conns; VCPU-P > LB throughout",
		plan:  planFig7,
	})
}
