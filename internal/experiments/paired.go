package experiments

import (
	"math"
	"slices"

	"vprobe/internal/metrics"
	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

// Measure is the one value a paired comparison judges each run by.
type Measure struct {
	// Name labels the value: "exec(s)" or "req/s".
	Name string
	// Higher reports whether a higher value is better.
	Higher bool
	// Of reads the value off one run.
	Of func(ScenarioRun) float64
}

// MeasureOf picks the value s's runs are compared by: Fig. 7's served
// requests per second when a watched app is a server with no request target
// (a hungry loop is endless, but no server), else mean execution time.
func MeasureOf(s spec.ScenarioV1) Measure {
	if slices.ContainsFunc(watchedProfiles(s.Normalize()), func(p *workload.Profile) bool { return p.Server && p.Endless() }) {
		return Measure{Name: "req/s", Higher: true, Of: func(r ScenarioRun) float64 {
			thr, _ := throughput(r)
			return thr
		}}
	}
	return Measure{Name: "exec(s)", Of: func(r ScenarioRun) float64 { return metrics.AvgExecSeconds(r.Runs) }}
}

// throughput is r's served requests per second, as Fig. 7 reports it; ok
// is false for a run that ended at time zero.
func throughput(r ScenarioRun) (thr float64, ok bool) {
	if secs := r.End.Seconds(); secs > 0 {
		return metrics.SumRequests(r.Runs) / secs, true
	}
	return 0, false
}

// watchedProfiles returns the profiles that build of the apps on n's
// watched VMs, in declaration order; n is normalized.
func watchedProfiles(n spec.ScenarioV1) []*workload.Profile {
	var out []*workload.Profile
	for _, vm := range n.VMs {
		if !slices.Contains(n.Watch, vm.Name) {
			continue
		}
		for _, app := range vm.Apps {
			if p, err := app.Profile(n.Scale); err == nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// Paired is one scheduler's runs against a baseline's, seed by seed.
type Paired struct {
	// Diffs are the relative differences (v−b)/b of each seed's value v
	// from the baseline's b, in seed order; NaN where b is 0.
	Diffs []float64
	// Better counts the seeds whose value beat the baseline's under the
	// measure, Ties those equal to it; a NaN seed counts in neither.
	Better, Ties int
}

// Pair compares runs with base seed by seed under m: runs[i] and base[i]
// ran one scenario at one seed under two schedulers, as RunPaired returns
// them.
func Pair(m Measure, base, runs []ScenarioRun) Paired {
	p := Paired{Diffs: make([]float64, len(runs))}
	for i, r := range runs {
		b, v := m.Of(base[i]), m.Of(r)
		switch {
		case b == 0:
			p.Diffs[i] = math.NaN()
			continue
		case v == b:
			p.Ties++
		case (v > b) == m.Higher:
			p.Better++
		}
		p.Diffs[i] = (v - b) / b
	}
	return p
}
