package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vprobe/internal/sim"
)

// TestGeneratedArrivalsDeterministicAcrossWorkers: every generated
// process must produce byte-identical reports and event logs at every
// worker count — the generators draw only from the arrival RNG stream,
// which the parallel host advance never touches.
func TestGeneratedArrivalsDeterministicAcrossWorkers(t *testing.T) {
	for _, proc := range []string{ArrivalPoisson, ArrivalDiurnal, ArrivalFlash} {
		t.Run(proc, func(t *testing.T) {
			base := Config{
				Hosts:             3,
				Horizon:           90 * sim.Second,
				Seed:              23,
				ArrivalsPerSecond: 0.8,
				MeanLifetime:      25 * sim.Second,
				Arrival:           ArrivalConfig{Process: proc},
			}
			var wantRep, wantLog string
			for _, workers := range []int{1, 4, 8} {
				cfg := base
				cfg.Workers = workers
				rep, log := runWith(t, cfg)
				if rep.Arrivals == 0 {
					t.Fatalf("%s generated no arrivals in 90s", proc)
				}
				if wantRep == "" {
					wantRep, wantLog = rep.String(), log
					continue
				}
				if rep.String() != wantRep {
					t.Fatalf("%s report diverges at workers=%d", proc, workers)
				}
				if log != wantLog {
					t.Fatalf("%s event log diverges at workers=%d", proc, workers)
				}
			}
		})
	}
}

// captureRun runs a cluster with its arrivals exported and a flight
// recorder attached and returns the recorded stream plus the rendered
// report, the event log, and the span JSONL export.
func captureRun(t *testing.T, cfg Config) (recs []TraceArrival, report, log string, spans []byte) {
	t.Helper()
	var exported bytes.Buffer
	cfg.Arrivals = &exported
	report, log, spans = runSpans(t, cfg)
	recs, err := ReadTrace(&exported)
	if err != nil {
		t.Fatal(err)
	}
	return recs, report, log, spans
}

// TestTraceRoundTrip is the replay acceptance test: record a generated
// run's offered load through its export, replay it as a trace, and demand
// the identical report, event log, span file, and re-recorded stream.
func TestTraceRoundTrip(t *testing.T) {
	base := Config{
		Hosts:             3,
		Horizon:           90 * sim.Second,
		Seed:              29,
		ArrivalsPerSecond: 0.7,
		MeanLifetime:      25 * sim.Second,
		GangFraction:      0.25,
		Gang:              true,
		Workers:           2,
	}
	recs, rep, log, spans := captureRun(t, base)
	if len(recs) == 0 {
		t.Fatal("export recorded nothing")
	}
	if n := strings.Count(log, " "+string(EventVMArrive)+" "); n != len(recs) {
		t.Fatalf("export recorded %d arrivals, event log shows %d", len(recs), n)
	}

	replay := base
	replay.Arrival = ArrivalConfig{Process: ArrivalTrace, Trace: recs}
	recs2, rep2, log2, spans2 := captureRun(t, replay)
	if rep2 != rep {
		t.Fatalf("replayed report diverges:\n--- generated\n%s\n--- replayed\n%s", rep, rep2)
	}
	if log2 != log {
		t.Fatal("replayed event log diverges from the generated run")
	}
	if !bytes.Equal(spans2, spans) {
		vm := []byte(`"kind":"vm"`)
		t.Fatalf("replayed span file diverges from the generated run (%d vs %d lifecycle spans)",
			bytes.Count(spans, vm), bytes.Count(spans2, vm))
	}
	if !reflect.DeepEqual(recs2, recs) {
		t.Fatal("replaying a trace re-recorded a different trace")
	}
}

// TestArrivalStreamInvariantUnderToggles pins the equal-load guarantee:
// the recorded arrival stream is a pure function of (seed, arrival
// config) — admission mechanisms, placement policy, and worker count
// must not move it.
func TestArrivalStreamInvariantUnderToggles(t *testing.T) {
	base := Config{
		Hosts:             3,
		Horizon:           60 * sim.Second,
		Seed:              31,
		ArrivalsPerSecond: 0.9,
		MeanLifetime:      20 * sim.Second,
		GangFraction:      0.25,
		Workers:           1,
	}
	want, _, _, _ := captureRun(t, base)
	if len(want) == 0 {
		t.Fatal("baseline recorded nothing")
	}
	variants := map[string]func(*Config){
		"workers=4":  func(c *Config) { c.Workers = 4 },
		"mechanisms": func(c *Config) { c.Preempt = true; c.Gang = true; c.Backfill = true },
		"deschedule": func(c *Config) { c.DeschedulePeriod = 10 * sim.Second },
		"policy":     func(c *Config) { c.Policy = "pack" },
	}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		got, _, _, _ := captureRun(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recorded arrival stream moved", name)
		}
	}
}

// TestWriteReadTraceRoundTrip pins the JSONL wire format.
func TestWriteReadTraceRoundTrip(t *testing.T) {
	recs := []TraceArrival{
		{AtUS: 0, MemoryMB: 1024, VCPUs: 1, Priority: 0, LifeUS: 5_000_000,
			Profiles: []string{"mcf"}},
		{AtUS: 1_500_000, MemoryMB: 4096, VCPUs: 4, Priority: 2, Group: "g1",
			LifeUS: 30_000_000, Profiles: []string{"memcached:64", "redis:2000"}},
		{AtUS: 1_500_000, MemoryMB: 4096, VCPUs: 4, Priority: 2, Group: "g1",
			LifeUS: 30_000_000},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	// Blank lines are legal in the JSONL schema.
	text := "\n" + strings.ReplaceAll(buf.String(), "\n", "\n\n")
	got, err := ReadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mutated the trace:\n got %+v\nwant %+v", got, recs)
	}
	if _, err := ReadTrace(strings.NewReader("{not json}")); err == nil {
		t.Fatal("malformed trace line decoded without error")
	}
}

// TestArrivalConfigNormalize pins the per-process defaults: they fill
// only for the selected process, and the zero config is Poisson.
func TestArrivalConfigNormalize(t *testing.T) {
	h := 300 * sim.Second
	a := ArrivalConfig{}.normalized(h)
	if a.Process != ArrivalPoisson {
		t.Fatalf("zero config normalized to %q", a.Process)
	}
	if a.DiurnalPeriod != 0 || a.FlashFactor != 0 {
		t.Fatal("poisson normalization filled another process's defaults")
	}
	d := ArrivalConfig{Process: ArrivalDiurnal}.normalized(h)
	if d.DiurnalPeriod != h || d.DiurnalAmplitude != 0.6 {
		t.Fatalf("diurnal defaults: period %v amplitude %v", d.DiurnalPeriod, d.DiurnalAmplitude)
	}
	f := ArrivalConfig{Process: ArrivalFlash}.normalized(h)
	if f.FlashFactor != 8 || f.FlashDuration != h/10 || f.FlashAt != h/3 {
		t.Fatalf("flash defaults: factor %v duration %v at %v",
			f.FlashFactor, f.FlashDuration, f.FlashAt)
	}
}

// TestArrivalConfigValidate covers the rejection paths.
func TestArrivalConfigValidate(t *testing.T) {
	ok := TraceArrival{AtUS: 0, MemoryMB: 1024, VCPUs: 1, LifeUS: 1_000_000}
	cases := []struct {
		name string
		cfg  ArrivalConfig
		want string // substring of the error; "" means valid
	}{
		{"poisson", ArrivalConfig{Process: ArrivalPoisson}, ""},
		{"unknown", ArrivalConfig{Process: "bursty"}, "unknown arrival process"},
		{"empty-trace", ArrivalConfig{Process: ArrivalTrace}, "non-empty trace"},
		{"amplitude", ArrivalConfig{Process: ArrivalDiurnal, DiurnalAmplitude: 1.5}, "amplitude"},
		{"flash-factor", ArrivalConfig{Process: ArrivalFlash, FlashFactor: 0.5}, "flash factor"},
		{"bad-record", ArrivalConfig{Process: ArrivalTrace,
			Trace: []TraceArrival{{AtUS: -1, MemoryMB: 1024, VCPUs: 1, LifeUS: 1}}},
			"record 0"},
		{"bad-profile", ArrivalConfig{Process: ArrivalTrace,
			Trace: []TraceArrival{{AtUS: 0, MemoryMB: 1024, VCPUs: 1, LifeUS: 1_000_000,
				Profiles: []string{"no-such-workload"}}}},
			"record 0"},
		{"unsorted", ArrivalConfig{Process: ArrivalTrace,
			Trace: []TraceArrival{{AtUS: 5, MemoryMB: 1024, VCPUs: 1, LifeUS: 1_000_000},
				{AtUS: 2, MemoryMB: 1024, VCPUs: 1, LifeUS: 1_000_000}}},
			"precedes"},
		{"trace-ok", ArrivalConfig{Process: ArrivalTrace, Trace: []TraceArrival{ok}}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRateAt pins the λ(t) shapes the thinning samplers draw against.
func TestRateAt(t *testing.T) {
	d := ArrivalConfig{Process: ArrivalDiurnal,
		DiurnalPeriod: 100 * sim.Second, DiurnalAmplitude: 0.5}
	quarter := sim.Time(25 * sim.Second)
	if got := d.rateAt(2, quarter); got < 2.99 || got > 3.01 {
		t.Fatalf("diurnal peak rate %v, want 3 at the quarter period", got)
	}
	if got := d.rateAt(2, 0); got < 1.99 || got > 2.01 {
		t.Fatalf("diurnal rate %v at t=0, want the base rate", got)
	}
	f := ArrivalConfig{Process: ArrivalFlash,
		FlashAt: 10 * sim.Second, FlashDuration: 5 * sim.Second, FlashFactor: 8}
	if got := f.rateAt(1, sim.Time(12*sim.Second)); got != 8 {
		t.Fatalf("flash rate %v inside the window, want 8", got)
	}
	if got := f.rateAt(1, sim.Time(20*sim.Second)); got != 1 {
		t.Fatalf("flash rate %v outside the window, want 1", got)
	}
}
