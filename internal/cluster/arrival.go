package cluster

// Pluggable arrival generators. The original engine offered one arrival
// process — homogeneous Poisson — which is the wrong shape for a
// thousand-host fleet: production load breathes (diurnal), spikes (flash
// crowds), and is often replayed from recorded traces. This file adds
// those processes behind Config.Arrival while keeping the Poisson path
// bit-for-bit identical to the pre-refactor draw.
//
// The non-homogeneous processes (diurnal, flash) sample by Lewis-Shedler
// thinning: candidate gaps are drawn from a homogeneous Poisson at the
// peak rate λmax, and each candidate at time t survives with probability
// λ(t)/λmax. Both the candidate gap and the acceptance roll come from
// the arrival RNG stream, so the generated load is a pure function of
// (seed, config) — byte-identical at any worker count, and invariant
// under the admission-mechanism toggles, which never touch this stream.
//
// Trace replay schedules recorded arrivals verbatim. Replay is chained —
// each batch's handler schedules the next — mirroring the generator's
// control flow so same-microsecond collisions with retries and
// departures order identically to the run that exported the trace.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalDiurnal = "diurnal"
	ArrivalFlash   = "flash"
	ArrivalTrace   = "trace"
)

// ArrivalProcesses lists the supported process names, sorted.
func ArrivalProcesses() []string {
	return []string{ArrivalDiurnal, ArrivalFlash, ArrivalPoisson, ArrivalTrace}
}

// ArrivalConfig selects and parameterises the arrival generator. Zero
// values select the defaults noted per field; defaults are filled only
// for the selected process.
type ArrivalConfig struct {
	// Process is "poisson" (default), "diurnal", "flash", or "trace".
	Process string

	// DiurnalPeriod is the sinusoid's period (default: the run horizon,
	// one full day-night cycle per run). DiurnalAmplitude in [0, 1] sets
	// the swing: the rate breathes between rate*(1-A) and rate*(1+A)
	// around ArrivalsPerSecond (default 0.6).
	DiurnalPeriod    sim.Duration
	DiurnalAmplitude float64

	// FlashAt starts a flash-crowd window of FlashDuration during which
	// the rate multiplies by FlashFactor (defaults: horizon/3, horizon/10,
	// 8). Outside the window the rate is ArrivalsPerSecond.
	FlashAt       sim.Duration
	FlashDuration sim.Duration
	FlashFactor   float64

	// Trace is the recorded arrival stream replayed by the "trace"
	// process, sorted by AtUS. Consecutive records sharing a non-empty
	// Group and the same AtUS arrive together as one gang.
	Trace []TraceArrival
}

// normalized fills the selected process's defaults.
func (a ArrivalConfig) normalized(horizon sim.Duration) ArrivalConfig {
	if a.Process == "" {
		a.Process = ArrivalPoisson
	}
	switch a.Process {
	case ArrivalDiurnal:
		if a.DiurnalPeriod <= 0 {
			a.DiurnalPeriod = horizon
		}
		if a.DiurnalAmplitude <= 0 {
			a.DiurnalAmplitude = 0.6
		}
	case ArrivalFlash:
		if a.FlashFactor <= 0 {
			a.FlashFactor = 8
		}
		if a.FlashDuration <= 0 {
			a.FlashDuration = horizon / 10
		}
		if a.FlashAt <= 0 {
			a.FlashAt = horizon / 3
		}
	}
	return a
}

// validate rejects configurations the generators cannot honor. It runs
// after normalized.
func (a ArrivalConfig) validate() error {
	switch a.Process {
	case ArrivalPoisson, ArrivalDiurnal, ArrivalFlash:
	case ArrivalTrace:
		if len(a.Trace) == 0 {
			return fmt.Errorf("cluster: arrival process %q needs a non-empty trace", a.Process)
		}
	default:
		return fmt.Errorf("cluster: unknown arrival process %q (have %v)",
			a.Process, ArrivalProcesses())
	}
	if a.Process == ArrivalDiurnal && a.DiurnalAmplitude > 1 {
		return fmt.Errorf("cluster: diurnal amplitude %v above 1 would need a negative rate",
			a.DiurnalAmplitude)
	}
	if a.Process == ArrivalFlash && a.FlashFactor < 1 {
		return fmt.Errorf("cluster: flash factor %v below 1 (the flash is the peak rate)",
			a.FlashFactor)
	}
	for i, rec := range a.Trace {
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("cluster: arrival trace record %d: %w", i, err)
		}
		if i > 0 && rec.AtUS < a.Trace[i-1].AtUS {
			return fmt.Errorf("cluster: arrival trace record %d at %dus precedes record %d",
				i, rec.AtUS, i-1)
		}
	}
	return nil
}

// rateAt is λ(t) in arrivals per second for the non-homogeneous
// processes; rate is the configured base ArrivalsPerSecond.
func (a *ArrivalConfig) rateAt(rate float64, t sim.Time) float64 {
	switch a.Process {
	case ArrivalDiurnal:
		phase := 2 * math.Pi * float64(t) / float64(a.DiurnalPeriod)
		return rate * (1 + a.DiurnalAmplitude*math.Sin(phase))
	case ArrivalFlash:
		if sim.Duration(t) >= a.FlashAt && sim.Duration(t) < a.FlashAt+a.FlashDuration {
			return rate * a.FlashFactor
		}
	}
	return rate
}

// nextArrivalWait draws the gap to the next generated arrival.
func (c *Cluster) nextArrivalWait() sim.Duration {
	a := &c.cfg.Arrival
	rate := c.cfg.ArrivalsPerSecond
	switch a.Process {
	case ArrivalDiurnal, ArrivalFlash:
		lamMax := rate * (1 + a.DiurnalAmplitude)
		if a.Process == ArrivalFlash {
			lamMax = rate * a.FlashFactor
		}
		now := c.engine.Now()
		// Bound the rejection loop: once a candidate lands past the
		// horizon the arrival can never fire, so stop thinning there.
		limit := sim.Time(c.cfg.Horizon) + sim.Time(sim.Second)
		t := now
		for {
			t = t.Add(sim.Duration(c.arrRNG.Exp(1e6 / lamMax)))
			if t > limit {
				return t.Sub(now)
			}
			if c.arrRNG.Float64()*lamMax <= a.rateAt(rate, t) {
				return t.Sub(now)
			}
		}
	default:
		// Poisson: the exact pre-refactor draw — one Exp per arrival.
		return sim.Duration(c.arrRNG.Exp(1e6 / rate))
	}
}

// TraceArrival is one recorded VM arrival in the replayable JSONL trace
// schema: integer-microsecond times, the VM shape, and per-VCPU workload
// references ("mcf", "memcached:64", "redis:2000").
type TraceArrival struct {
	AtUS     int64    `json:"at_us"`
	MemoryMB int64    `json:"memory_mb"`
	VCPUs    int      `json:"vcpus"`
	Priority int      `json:"priority"`
	Group    string   `json:"group,omitempty"`
	LifeUS   int64    `json:"life_us"`
	Profiles []string `json:"profiles,omitempty"`
}

// Validate checks one trace record's fields. It is exported so the spec
// layer can report per-record failures with its own field paths without
// duplicating the rules.
func (rec TraceArrival) Validate() error {
	if rec.AtUS < 0 {
		return fmt.Errorf("negative arrival time %dus", rec.AtUS)
	}
	if rec.MemoryMB <= 0 {
		return fmt.Errorf("memory %d MB", rec.MemoryMB)
	}
	if rec.VCPUs <= 0 {
		return fmt.Errorf("%d vcpus", rec.VCPUs)
	}
	if rec.Priority < int(BestEffort) || rec.Priority > int(Critical) {
		return fmt.Errorf("priority %d outside [%d, %d]",
			rec.Priority, BestEffort, Critical)
	}
	if rec.LifeUS <= 0 {
		return fmt.Errorf("lifetime %dus", rec.LifeUS)
	}
	if len(rec.Profiles) > rec.VCPUs {
		return fmt.Errorf("%d profiles for %d vcpus", len(rec.Profiles), rec.VCPUs)
	}
	for _, ref := range rec.Profiles {
		if _, err := parseTraceRef(ref); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace decodes a JSONL arrival trace: one TraceArrival object per
// line, blank lines skipped.
func ReadTrace(r io.Reader) ([]TraceArrival, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var recs []TraceArrival
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var rec TraceArrival
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("cluster: trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: read trace: %w", err)
	}
	return recs, nil
}

// WriteTrace encodes an arrival trace as JSONL.
func WriteTrace(w io.Writer, recs []TraceArrival) error {
	enc := json.NewEncoder(w)
	for i, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("cluster: write trace record %d: %w", i, err)
		}
	}
	return nil
}

// recordArrival exports one arriving VM in the trace schema, so a run's
// offered load can be replayed. A failed write stops the run.
func (c *Cluster) recordArrival(vm *VM, refs []string) {
	if c.cfg.Arrivals == nil || c.err != nil {
		return
	}
	rec := TraceArrival{
		AtUS:     int64(vm.arriveAt),
		MemoryMB: vm.Spec.MemoryMB,
		VCPUs:    vm.Spec.VCPUs,
		Priority: int(vm.Spec.Priority),
		Group:    vm.Spec.Group,
		LifeUS:   int64(vm.life),
		Profiles: refs,
	}
	if err := WriteTrace(c.cfg.Arrivals, []TraceArrival{rec}); err != nil {
		c.err = fmt.Errorf("cluster: arrival export: %w", err)
		c.engine.Stop()
	}
}

// scheduleTraceArrivals arms trace replay: batches are chained, each
// handler scheduling the next, mirroring the generator's control flow.
func (c *Cluster) scheduleTraceArrivals() {
	c.traceNext = 0
	c.scheduleNextTraceBatch()
}

// scheduleNextTraceBatch schedules the next arrival batch: one record,
// or a run of records sharing a non-empty group and the same timestamp
// (a gang arriving together).
func (c *Cluster) scheduleNextTraceBatch() {
	recs := c.cfg.Arrival.Trace
	i := c.traceNext
	if i >= len(recs) {
		return
	}
	j := i + 1
	if recs[i].Group != "" {
		for j < len(recs) && recs[j].Group == recs[i].Group && recs[j].AtUS == recs[i].AtUS {
			j++
		}
	}
	c.traceNext = j
	lo, hi := i, j
	delay := sim.Time(recs[i].AtUS).Sub(c.engine.Now())
	if delay < 0 {
		delay = 0
	}
	c.engine.Schedule(delay, "arrival", func(*sim.Engine) {
		c.onTraceArrival(lo, hi)
		c.scheduleNextTraceBatch()
	})
}

// onTraceArrival admits the replayed records [lo, hi) of the trace
// through the same admission step as a generated arrival; only the specs
// come from the trace instead of the RNG.
func (c *Cluster) onTraceArrival(lo, hi int) {
	if !c.sync() {
		return
	}
	arrs := make([]arrival, 0, hi-lo)
	for k, rec := range c.cfg.Arrival.Trace[lo:hi] {
		arrs = append(arrs, arrival{
			spec: VMSpec{
				MemoryMB: rec.MemoryMB,
				VCPUs:    rec.VCPUs,
				Profiles: c.traceProfiles[lo+k],
				Priority: Priority(rec.Priority),
				Group:    rec.Group,
			},
			life: max(sim.Duration(rec.LifeUS), sim.Second),
			refs: rec.Profiles,
		})
	}
	c.admitArrivals(arrs)
}

// ---- workload references ----

// parseTraceRef parses the trace schema's per-VCPU workload reference: a
// batch workload by catalog name, or a server workload with its load
// parameter ("memcached:<concurrency>", "redis:<connections>").
func parseTraceRef(s string) (workload.Ref, error) {
	if name, param, ok := strings.Cut(s, ":"); ok {
		v, err := strconv.Atoi(param)
		if err != nil || v <= 0 {
			return workload.Ref{}, fmt.Errorf("workload ref %q: bad parameter %q", s, param)
		}
		if name != "memcached" && name != "redis" {
			return workload.Ref{}, fmt.Errorf("workload ref %q: parameters apply to memcached and redis only", s)
		}
		return workload.Ref{Name: name, Load: v}, nil
	}
	if _, err := workload.ByName(s); err != nil {
		return workload.Ref{}, fmt.Errorf("workload ref %q: %v", s, err) //vet:nowrap the catalog's not-found error is context, not a matchable sentinel
	}
	return workload.Ref{Name: s}, nil
}

// traceRef renders r in the trace schema that parseTraceRef reads.
func traceRef(r workload.Ref) string {
	if r.Load > 0 {
		return r.Name + ":" + strconv.Itoa(r.Load)
	}
	return r.Name
}

// resolveProfiles parses and resolves a record's workload references.
func resolveProfiles(refs []string) ([]*workload.Profile, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	profs := make([]*workload.Profile, 0, len(refs))
	for _, s := range refs {
		ref, err := parseTraceRef(s)
		if err != nil {
			return nil, err
		}
		p, err := ref.Profile()
		if err != nil {
			return nil, err
		}
		profs = append(profs, p)
	}
	return profs, nil
}
