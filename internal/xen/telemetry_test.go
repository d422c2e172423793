package xen_test

import (
	"bytes"
	"strings"
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// attach builds a default sampler over a fresh registry and attaches it
// to h. The sampler is started immediately (the test hypervisors arm
// their own tickers inside Run's implicit Start, after this).
func attach(h *xen.Hypervisor) (*xen.Telemetry, *telemetry.Sampler) {
	s := telemetry.NewSampler(telemetry.NewRegistry(), sim.Second)
	t := xen.AttachTelemetry(h, s)
	s.Start(h.Engine)
	return t, s
}

// TestTelemetryCountsQuanta checks the xen-layer counters against model
// ground truth after a busy vProbe run with a mixed workload: thrashing
// apps (LLC-T) are the ones Algorithm 1 assigns to nodes, so the
// reassignment counter must move.
func TestTelemetryCountsQuanta(t *testing.T) {
	cfg := xen.DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := xen.New(numa.XeonE5620(), sched.MustNew(sched.KindVProbe), cfg)
	vm, err := h.CreateDomain("vm", 8192, 12, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{
		"mcf", "milc", "mcf", "milc", "soplex", "soplex", "lu", "cg",
	} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AttachApp(vm, i, prof); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 12; i++ {
		if _, err := h.AttachApp(vm, i, workload.Hungry()); err != nil {
			t.Fatal(err)
		}
	}
	tele, s := attach(h)
	h.Run(5 * sim.Second)

	disp := tele.Dispatches.Value()
	if disp == 0 {
		t.Fatal("no dispatches counted")
	}
	// Every dispatch ends in exactly one endQuantum; only quanta still in
	// flight at the horizon are unobserved.
	if n := float64(tele.QuantumUS.Count()); disp-n > float64(len(h.PCPUs)) || n > disp {
		t.Fatalf("quantum histogram count %v vs %v dispatches", n, disp)
	}
	// vProbe classifies every app-carrying VCPU each period.
	census := tele.CensusFR.Value() + tele.CensusFI.Value() + tele.CensusT.Value()
	if census != 12 {
		t.Fatalf("LLC class census = %v, want 12 (all app VCPUs)", census)
	}
	if tele.Reassignments.Value() == 0 {
		t.Fatal("vProbe applied no Algorithm 1 reassignments")
	}
	if s.Rows() != 5 {
		t.Fatalf("sampled %d rows over 5 s, want 5", s.Rows())
	}

	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, _, err := telemetry.ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if series < 10 {
		t.Fatalf("only %d series exported, want >= 10", series)
	}
}

// TestTelemetryBRMLockSeries checks the PolicyTelemetry forwarding: BRM
// registers its lock-model series and they move.
func TestTelemetryBRMLockSeries(t *testing.T) {
	h := newSteadyStateHV(t, sched.KindBRM)
	tele, s := attach(h)
	h.Run(3 * sim.Second)

	// BRM's biased-random stealing migrates across both node boundaries;
	// the locality classification must see both kinds.
	if tele.StealsLocal.Value() == 0 || tele.StealsRemote.Value() == 0 {
		t.Fatalf("steal classification: local=%v remote=%v, want both > 0",
			tele.StealsLocal.Value(), tele.StealsRemote.Value())
	}

	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"sched_brm_lock_updates_total",
		"sched_brm_lock_wait_us_total",
		"sched_brm_lock_contenders",
	} {
		if !strings.Contains(out, name+" ") {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}
	idx := strings.Index(out, "sched_brm_lock_wait_us_total ")
	if strings.HasPrefix(out[idx:], "sched_brm_lock_wait_us_total 0\n") {
		t.Fatal("12 active VCPUs (4 over the lock-free budget) accrued no convoy wait")
	}
}

// runFingerprint runs a fresh steady-state hypervisor for 5 s and digests
// everything observable: the full event stream and the per-VCPU outcome.
func runFingerprint(t *testing.T, kind sched.Kind, withTele bool) string {
	t.Helper()
	h := newSteadyStateHV(t, kind)
	var sb strings.Builder
	h.EventFn = func(ev xen.Event) {
		sb.WriteString(ev.At.String())
		sb.WriteByte(' ')
		sb.WriteString(string(ev.Kind))
		sb.WriteByte(' ')
		sb.Write(ev.AppendDetail(nil))
		sb.WriteByte('\n')
	}
	if withTele {
		attach(h)
	}
	h.Run(5 * sim.Second)
	for _, v := range h.AllVCPUs() {
		fmtState(&sb, v)
	}
	return sb.String()
}

func fmtState(sb *strings.Builder, v *xen.VCPU) {
	sb.WriteString(v.App.Name)
	sb.WriteString(v.RunTime.String())
	sb.WriteString(sim.Duration(v.Counters.Total()).String())
	sb.WriteString(sim.Duration(v.Counters.Remote).String())
}

// TestTelemetryDoesNotPerturb is the determinism acceptance criterion at
// the xen layer: with telemetry attached, the event stream and final
// model state are byte-identical to the telemetry-off run.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	for _, kind := range []sched.Kind{sched.KindCredit, sched.KindVProbe, sched.KindBRM} {
		off := runFingerprint(t, kind, false)
		on := runFingerprint(t, kind, true)
		if off != on {
			t.Fatalf("%s: simulation diverges with telemetry attached", kind)
		}
	}
}
