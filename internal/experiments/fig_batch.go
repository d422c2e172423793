package experiments

import (
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// baselineKind picks the normalization baseline: Credit when present.
func baselineKind(opts Options) sched.Kind {
	for _, k := range opts.Schedulers {
		if k == sched.KindCredit {
			return k
		}
	}
	return opts.Schedulers[0]
}

// execMetric computes the workload's execution-time scalar: per-instance
// average for single-app workloads, per-app-normalized average for mixes
// (the paper's Fig. 4 mix rule), latest-thread for multi-threaded apps.
func execMetric(runs []metrics.AppRun, mixBase map[string]float64, threaded bool) float64 {
	if mixBase != nil {
		// Average of per-app normalized execution times.
		byApp := map[string][]float64{}
		for _, r := range runs {
			byApp[r.App] = append(byApp[r.App], r.ExecTime.Seconds())
		}
		// Iterate apps in sorted order: float addition is not associative,
		// so summing in map order would make the mix metric run-dependent.
		var sum float64
		var n int
		for _, app := range metrics.SortedKeys(byApp) {
			base := mixBase[app]
			if base <= 0 {
				continue
			}
			sum += sim.Mean(byApp[app]) / base
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if threaded {
		return metrics.MaxExecSeconds(runs)
	}
	return metrics.AvgExecSeconds(runs)
}

// mixBaseline extracts the per-app mean execution times of the baseline
// run, for the mix normalization rule.
func mixBaseline(runs []metrics.AppRun) map[string]float64 {
	byApp := map[string][]float64{}
	for _, r := range runs {
		byApp[r.App] = append(byApp[r.App], r.ExecTime.Seconds())
	}
	out := make(map[string]float64, len(byApp))
	for app, times := range byApp {
		out[app] = sim.Mean(times)
	}
	return out
}

// addNormalizedFigure builds the paper's three normalized panels (execution
// time, total accesses, remote accesses) for a set of labelled workloads.
func addNormalizedFigure(r *Result, title string, labels []string,
	outs map[string]map[sched.Kind][]ScenarioRun, opts Options, threaded bool) {

	base := baselineKind(opts)
	panels := []struct {
		name   string
		series string
	}{
		{title + "(a) Normalized Execution Time", "exec"},
		{title + "(b) Normalized Total Memory Accesses", "total"},
		{title + "(c) Normalized Remote Memory Accesses", "remote"},
	}
	for _, panel := range panels {
		cols := append([]string{"workload"}, schedColumns(opts)...)
		t := metrics.NewTable(panel.name, cols...)
		for _, label := range labels {
			byKind := outs[label]
			baseOut := byKind[base]
			isMix := label == "mix"

			cells := []string{label}
			for _, k := range opts.Schedulers {
				o := byKind[k]
				var ratios []float64
				for sidx := range o {
					runs := o[sidx].Runs
					baseRuns := baseOut[sidx].Runs
					var v, baseVal float64
					switch panel.series {
					case "exec":
						if isMix {
							v = execMetric(runs, mixBaseline(baseRuns), threaded)
							baseVal = 1
						} else {
							v = execMetric(runs, nil, threaded)
							baseVal = execMetric(baseRuns, nil, threaded)
						}
					case "total":
						v = metrics.SumTotal(runs)
						baseVal = metrics.SumTotal(baseRuns)
					case "remote":
						v = metrics.SumRemote(runs)
						baseVal = metrics.SumRemote(baseRuns)
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
		t.AddNote("normalized to %s = 1.0, averaged over %d seeds", base, opts.Repeats)
		r.Tables = append(r.Tables, t)
	}
}

func schedColumns(opts Options) []string {
	cols := make([]string, 0, len(opts.Schedulers))
	for _, k := range opts.Schedulers {
		cols = append(cols, schedLabel(k))
	}
	return cols
}

// comparisonCells declares the schedulerCells of every workload on the
// paper's testbed, workload-major. prefix+Name labels each workload's
// progress events.
func comparisonCells(prefix string, ws []workloadApps, opts Options) []Cell {
	var cells []Cell
	for _, w := range ws {
		base := standard("xeon-e5620", "", opts.Seed, w.Apps1, w.Apps2, opts)
		cells = append(cells, schedulerCells(base, prefix+w.Name, opts)...)
	}
	return cells
}

// byWorkload groups the outputs of comparisonCells by workload name and
// scheduler.
func byWorkload(ws []workloadApps, outs []any, opts Options) map[string]map[sched.Kind][]ScenarioRun {
	runs := as[ScenarioRun](outs)
	per := len(opts.Schedulers) * opts.Repeats
	out := make(map[string]map[sched.Kind][]ScenarioRun, len(ws))
	for i, w := range ws {
		out[w.Name] = byScheduler(runs[i*per:(i+1)*per], opts)
	}
	return out
}

// names lists the workloads' names in order.
func names(ws []workloadApps) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

func planFig4(opts Options) plan {
	opts = opts.normalized()
	ws := specWorkloads()
	return plan{cells: comparisonCells("", ws, opts), assemble: func(outs []any) *Result {
		r := &Result{ID: "fig4", Title: "SPEC CPU2006 under five schedulers (paper Fig. 4)"}
		addNormalizedFigure(r, "Fig. 4", names(ws), byWorkload(ws, outs, opts), opts, false)
		return r
	}}
}

func planFig5(opts Options) plan {
	opts = opts.normalized()
	ws := npbWorkloads()
	return plan{cells: comparisonCells("", ws, opts), assemble: func(outs []any) *Result {
		r := &Result{ID: "fig5", Title: "NPB (4 threads) under five schedulers (paper Fig. 5)"}
		addNormalizedFigure(r, "Fig. 5", names(ws), byWorkload(ws, outs, opts), opts, true)
		return r
	}}
}

// planFig1 reproduces §II-B: the remote memory access ratio of
// memory-intensive applications under the unmodified Credit scheduler.
// The reported number is the page-level metric (fraction of pages touched
// from a remote node at least once per analysis window); the access-level
// ratio is included as a note column. See DESIGN.md for why the paper's
// >80% figures imply the page-level reading. Every cell is also the
// repeat-0 Credit cell of a fig4 or fig5 workload.
func planFig1(opts Options) plan {
	opts = opts.normalized()
	ws := []workloadApps{
		{"bt", named("bt", 4), named("bt", 4)},
		{"lu", named("lu", 4), named("lu", 4)},
		{"sp", named("sp", 4), named("sp", 4)},
		{"soplex", named("soplex", 4), named("soplex", 4)},
		{"mcf", named("mcf", 6), named("mcf", 2)},
		{"milc", named("milc", 4), named("milc", 4)},
		{"libquantum", named("libquantum", 4), named("libquantum", 4)},
	}
	cells := make([]Cell, len(ws))
	for i, w := range ws {
		cells[i] = Cell{Name: w.Name + "/credit",
			Spec: standard("xeon-e5620", sched.KindCredit, opts.Seed, w.Apps1, w.Apps2, opts)}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fig1", Title: "Remote memory access ratio under Credit (paper Fig. 1)"}
		t := metrics.NewTable("Fig. 1", "workload", "page-remote", "access-remote")
		for i, run := range as[ScenarioRun](outs) {
			page, access := metrics.AvgPageRemoteRatio(run.Runs), metrics.AvgRemoteRatio(run.Runs)
			r.Set("page-remote/credit", ws[i].Name, page)
			r.Set("access-remote/credit", ws[i].Name, access)
			t.AddRow(ws[i].Name, metrics.Pct(page), metrics.Pct(access))
		}
		t.AddNote("paper: all > 80%% except soplex (77.41%%)")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "fig1",
		Title: "Remote memory access ratio under Credit",
		Paper: "Fig. 1: >80% remote ratio for memory-intensive apps (soplex 77.41%)",
		plan:  planFig1,
	})
	register(&Experiment{
		ID:    "fig4",
		Title: "SPEC CPU2006 comparison",
		Paper: "Fig. 4: vProbe best everywhere; soplex +32.5% vs Credit; BRM <= Credit",
		plan:  planFig4,
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "NPB comparison",
		Paper: "Fig. 5: vProbe best; sp +45.2% vs Credit; LB total accesses rise on bt/lu/sp",
		plan:  planFig5,
	})
}
