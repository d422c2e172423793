package experiments

import (
	"context"
	"strings"
	"testing"

	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// testOpts keeps shape tests fast while preserving enough virtual time for
// the mechanisms (sampling periods, first touch) to act.
func testOpts() Options {
	return Options{Scale: 0.35, Repeats: 2, Seed: 1}.normalized()
}

// runID runs the registered experiment id standalone.
func runID(t *testing.T, id string, opts Options) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table3", "ablate-affinity", "ablate-dynamic", "ablate-pagemig",
		"fournode", "sensitivity-bounds", "cluster-controlplane",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered (have %v)", id, ids)
		}
	}
	if len(All()) != len(ids) {
		t.Fatal("All() and IDs() disagree")
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.plan == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestResultSeries(t *testing.T) {
	r := &Result{ID: "x"}
	r.Set("a/b", "c", 1.5)
	if got := r.Get("a/b", "c"); got != 1.5 {
		t.Fatalf("Get = %v", got)
	}
	if got := r.Get("missing", "c"); got != 0 {
		t.Fatalf("missing Get = %v", got)
	}
	if !strings.Contains(r.String(), "x") {
		t.Fatal("String() missing id")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale != DefaultScale || o.Seed != 1 || o.Repeats != 3 {
		t.Fatalf("defaults = %+v", o)
	}
	if len(o.Schedulers) != 5 {
		t.Fatalf("schedulers = %v", o.Schedulers)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res := runID(t, "table1", testOpts())
	if res.Get("nodes/config", "nodes") != 2 || res.Get("cpus/config", "cpus") != 8 {
		t.Fatalf("platform mismatch: %+v", res.Series)
	}
}

// TestVProbeBeatsCredit asserts the headline shape on the soplex workload:
// vProbe completes the measured VM's work substantially faster than the
// stock Credit scheduler (paper: 32.5% faster; we require >= 15% at test
// scale).
func TestVProbeBeatsCredit(t *testing.T) {
	opts := testOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	outs, err := RunSchedulers(context.Background(), "xeon-e5620", "",
		named("soplex", 4), named("soplex", 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	credit := meanExec(outs[sched.KindCredit], false)
	vprobe := meanExec(outs[sched.KindVProbe], false)
	if vprobe >= credit*0.85 {
		t.Fatalf("vProbe %.2fs vs Credit %.2fs — improvement below 15%%", vprobe, credit)
	}
}

// TestVCPUPAndLBBetweenExtremes asserts the paper's ordering: both
// single-mechanism ablations beat Credit but not vProbe.
func TestVCPUPAndLBBetweenExtremes(t *testing.T) {
	opts := testOpts()
	opts.Schedulers = []sched.Kind{
		sched.KindCredit, sched.KindVProbe, sched.KindVCPUP, sched.KindLB,
	}
	outs, err := RunSchedulers(context.Background(), "xeon-e5620", "",
		named("milc", 4), named("milc", 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	credit := meanExec(outs[sched.KindCredit], false)
	vprobe := meanExec(outs[sched.KindVProbe], false)
	vcpup := meanExec(outs[sched.KindVCPUP], false)
	lb := meanExec(outs[sched.KindLB], false)
	if vcpup >= credit {
		t.Errorf("VCPU-P (%.2fs) did not beat Credit (%.2fs)", vcpup, credit)
	}
	if lb >= credit {
		t.Errorf("LB (%.2fs) did not beat Credit (%.2fs)", lb, credit)
	}
	if vprobe > vcpup*1.02 {
		t.Errorf("vProbe (%.2fs) worse than VCPU-P (%.2fs)", vprobe, vcpup)
	}
}

// TestVProbeReducesRemoteAccesses asserts the Fig. 4(c) shape: vProbe's
// remote access count is a small fraction of Credit's.
func TestVProbeReducesRemoteAccesses(t *testing.T) {
	opts := testOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	outs, err := RunSchedulers(context.Background(), "xeon-e5620", "",
		named("libquantum", 4), named("libquantum", 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	var creditRemote, vprobeRemote float64
	for _, so := range outs[sched.KindCredit] {
		for _, r := range so.Runs {
			creditRemote += r.Remote
		}
	}
	for _, so := range outs[sched.KindVProbe] {
		for _, r := range so.Runs {
			vprobeRemote += r.Remote
		}
	}
	if vprobeRemote >= 0.5*creditRemote {
		t.Fatalf("vProbe remote %.3g not well below Credit %.3g", vprobeRemote, creditRemote)
	}
}

func meanExec(runs []ScenarioRun, threaded bool) float64 {
	var vals []float64
	for _, so := range runs {
		vals = append(vals, execMetric(so.Runs, nil, threaded))
	}
	return sim.Mean(vals)
}

// TestFig1RemoteRatiosHigh asserts the §II-B motivation: under Credit the
// page-level remote ratio is high for every memory-intensive app.
func TestFig1RemoteRatiosHigh(t *testing.T) {
	opts := testOpts()
	res := runID(t, "fig1", opts)
	for app, v := range res.Series["page-remote/credit"] {
		if v < 0.5 {
			t.Errorf("%s: page-remote %.1f%% below 50%% — motivation not reproduced", app, 100*v)
		}
	}
	// soplex is the paper's lowest.
	soplex := res.Get("page-remote/credit", "soplex")
	for app, v := range res.Series["page-remote/credit"] {
		if app == "soplex" || app == "mcf" {
			continue // mcf's 6/2 split makes it structurally close to soplex
		}
		if v < soplex-0.03 {
			t.Errorf("%s (%.1f%%) well below soplex (%.1f%%), paper has soplex lowest", app, 100*v, 100*soplex)
		}
	}
}

// TestFig3Calibration asserts Fig. 3's published RPTI values come out of a
// full simulation, not just the catalog.
func TestFig3Calibration(t *testing.T) {
	res := runID(t, "fig3", testOpts())
	want := map[string]float64{
		"povray": 0.48, "ep": 2.01, "lu": 15.38,
		"mg": 16.33, "milc": 21.68, "libquantum": 22.41,
	}
	for app, rpti := range want {
		got := res.Get("rpti/solo", app)
		if got < rpti*0.93 || got > rpti*1.07 {
			t.Errorf("%s: measured RPTI %.2f, paper %.2f", app, got, rpti)
		}
	}
	// Miss-rate ordering mirrors the RPTI ordering.
	if res.Get("missrate/solo", "povray") >= res.Get("missrate/solo", "lu") {
		t.Error("povray misses more than lu")
	}
	if res.Get("missrate/solo", "lu") >= res.Get("missrate/solo", "libquantum") {
		t.Error("lu misses more than libquantum")
	}
}

// TestFig6ImprovementGrowsWithConcurrency asserts the Fig. 6 trend: the
// gain over Credit at high concurrency exceeds the gain at low
// concurrency (working set outgrows the LLC).
func TestFig6ImprovementGrowsWithConcurrency(t *testing.T) {
	opts := testOpts()
	opts.Schedulers = []sched.Kind{sched.KindCredit, sched.KindVProbe}
	run := func(conc int) float64 {
		app := spec.AppV1{Server: "memcached", Load: conc, Requests: 40000}
		outs, err := RunSchedulers(context.Background(), "xeon-e5620", "", replicate(app, 8), replicate(app, 8), opts)
		if err != nil {
			t.Fatal(err)
		}
		credit := meanExec(outs[sched.KindCredit], true)
		vprobe := meanExec(outs[sched.KindVProbe], true)
		return 1 - vprobe/credit
	}
	low := run(16)
	high := run(112)
	if high <= low {
		t.Fatalf("improvement did not grow with concurrency: 16 -> %.1f%%, 112 -> %.1f%%",
			100*low, 100*high)
	}
}

// TestFig8UShape asserts the sampling-period sweep is U-ish: 0.1 s is
// worse than 1 s, and very long periods do not beat the 1-2 s region.
func TestFig8UShape(t *testing.T) {
	opts := testOpts()
	res := runID(t, "fig8", opts)
	e := func(label string) float64 { return res.Get("exec/vprobe", label) }
	if e("100.000ms") <= e("1.000s") {
		t.Errorf("0.1s period (%.2fs) not worse than 1s (%.2fs)", e("100.000ms"), e("1.000s"))
	}
	min := e("1.000s")
	if v := e("2.000s"); v < min {
		min = v
	}
	if e("10.000s") < min*0.98 {
		t.Errorf("10s period (%.2fs) beats the 1-2s region (%.2fs)", e("10.000s"), min)
	}
	// Overhead falls monotonically with the period.
	if res.Get("overhead/vprobe", "100.000ms") <= res.Get("overhead/vprobe", "1.000s") {
		t.Error("short periods should cost more overhead")
	}
}

// TestTable3OverheadNegligible asserts the paper's headline: vProbe's
// overhead time is far below 0.1% for 1-4 VMs.
func TestTable3OverheadNegligible(t *testing.T) {
	res := runID(t, "table3", testOpts())
	for _, vms := range []string{"1", "2", "3", "4"} {
		pct := res.Get("overhead/vprobe", vms)
		if pct <= 0 {
			t.Errorf("%s VMs: zero overhead reported", vms)
		}
		if pct > 0.1 {
			t.Errorf("%s VMs: overhead %.4f%% above 0.1%%", vms, pct)
		}
	}
}

// TestAffinityAblation asserts Eq. 1 is load-bearing: erasing affinity
// information makes vProbe dramatically worse.
func TestAffinityAblation(t *testing.T) {
	res := runID(t, "ablate-affinity", testOpts())
	with := res.Get("exec/vprobe", "mix")
	without := res.Get("exec/vprobe-no-affinity", "mix")
	if without <= with*1.10 {
		t.Fatalf("no-affinity (%.2fs) not clearly worse than vProbe (%.2fs)", without, with)
	}
}

// TestFourNodeGeneralizes asserts vProbe's advantage holds with N = 4.
func TestFourNodeGeneralizes(t *testing.T) {
	res := runID(t, "fournode", testOpts())
	credit := res.Get("exec/credit", "fournode")
	vprobe := res.Get("exec/vprobe", "fournode")
	if vprobe >= credit*0.9 {
		t.Fatalf("4-node vProbe (%.2fs) not clearly better than Credit (%.2fs)", vprobe, credit)
	}
	if res.Get("remote/vprobe", "fournode") >= res.Get("remote/credit", "fournode") {
		t.Fatal("4-node vProbe did not reduce remote ratio")
	}
}

// TestDeterministicExperiments asserts repeated runs produce identical
// series.
func TestDeterministicExperiments(t *testing.T) {
	opts := testOpts()
	opts.Repeats = 1
	a := runID(t, "fig3", opts)
	b := runID(t, "fig3", opts)
	for series, m := range a.Series {
		for label, v := range m {
			if b.Get(series, label) != v {
				t.Fatalf("nondeterministic: %s/%s %v vs %v", series, label, v, b.Get(series, label))
			}
		}
	}
}

// TestControlPlanePreemptionHelpsCritical is the control-plane acceptance
// bar: at equal offered load, enabling preemption strictly reduces the
// critical class's mean admission wait, and the mechanism actually fires.
func TestControlPlanePreemptionHelpsCritical(t *testing.T) {
	res := runID(t, "cluster-controlplane", testOpts())
	if res.Get("preemptions", "preempt") == 0 {
		t.Fatal("preempt variant never preempted under overload")
	}
	none := res.Get("crit-wait", "none")
	preempt := res.Get("crit-wait", "preempt")
	if preempt >= none {
		t.Fatalf("critical mean wait %.2fs with preemption, %.2fs without — no strict improvement",
			preempt, none)
	}
	// The full bundle must also report its remaining mechanisms firing.
	for _, series := range []string{"gangs", "backfills"} {
		if res.Get(series, "full") == 0 {
			t.Errorf("full variant reports zero %s", series)
		}
	}
}

// TestVCPUPhaseCacheMatchesReference checks the phase each VCPU caches
// against the reference Profile.PhaseAt(InstrDone) over full
// standard-scenario runs of multi-phase apps, with guest-thread migration
// on (the default configuration): after every traced event (each dispatch
// follows the previous quantum's end on its PCPU) and when the run ends.
func TestVCPUPhaseCacheMatchesReference(t *testing.T) {
	for _, w := range specWorkloads() {
		if w.Name != "soplex" && w.Name != "mcf" && w.Name != "mix" {
			continue
		}
		opts := Options{Scale: 0.3, Horizon: 600 * sim.Second}
		h, err := standard("xeon-e5620", sched.KindVProbe, 1, w.Apps1, w.Apps2, opts).Hypervisor()
		if err != nil {
			t.Fatal(err)
		}
		last := map[*xen.VCPU]*workload.Phase{}
		var changes, moves int
		check := func() {
			for _, v := range h.AllVCPUs() {
				if v.App == nil {
					continue
				}
				if want := v.App.PhaseAt(v.InstrDone); v.Phase() != want {
					t.Fatalf("%s: vcpu%d caches phase %+v, reference %+v", w.Name, v.ID, *v.Phase(), *want)
				}
				if last[v] != nil && last[v] != v.Phase() {
					changes++
				}
				last[v] = v.Phase()
			}
		}
		h.EventFn = func(ev xen.Event) {
			if ev.Kind == xen.EventGuestMove {
				moves++
			}
			check()
		}
		if _, err := h.RunContext(context.Background(), opts.Horizon); err != nil {
			t.Fatal(err)
		}
		check()
		if changes == 0 || moves == 0 {
			t.Fatalf("%s: %d phase changes and %d guest moves; the run exercised neither writer", w.Name, changes, moves)
		}
	}
}
