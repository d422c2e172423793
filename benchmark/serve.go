package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vprobe"
	"vprobe/internal/serve"
	"vprobe/internal/sim"
)

// serveConfig is a vprobe-serve workload: an in-process server on a
// loopback listener. An untimed run sends rounds of requests back to back;
// a traced run drives the server with an open-loop generator.
type serveConfig struct {
	name string
	// maxConcurrent bounds the server's simultaneous runs; conns bounds
	// the client's connections.
	maxConcurrent, conns int
	// pool is how many distinct specs the warm-up posts; repeated POSTs
	// (cache hits) and event-stream reads draw from them.
	pool int
	// roundRequests is how many requests one closed-loop round sends, each
	// round to a fresh server; nominalRound is a round's wall time, pool
	// warm-up included, on the reference machine.
	roundRequests int
	nominalRound  time.Duration
	// loRate and hiRate are the traced run's two open-loop phases' request
	// rates, per second; each phase lasts phase, or half of -seconds when
	// zero.
	loRate, hiRate float64
	phase          time.Duration
	// missShare of requests post a new spec and hitShare repost a pool
	// spec; the rest read a pool run's event stream.
	missShare, hitShare float64
	// specHorizon is the simulated length of every posted scenario.
	specHorizon time.Duration
	timeout     time.Duration
	// setupReps is how many times each session's server is started, each
	// start timed; setup_s is the median of all starts.
	setupReps int
}

// serveMix's open-loop rates sit below the knee of a two-slot server: the
// high rate keeps both slots busy about half the time.
var serveMix = serveConfig{
	name:          "serve-mix",
	maxConcurrent: 2,
	conns:         2,
	pool:          200,
	roundRequests: 1500,
	nominalRound:  1300 * time.Millisecond,
	loRate:        100,
	hiRate:        200,
	missShare:     0.55,
	hitShare:      0.35,
	specHorizon:   500 * time.Millisecond,
	timeout:       10 * time.Second,
	setupReps:     7,
}

type reqKind int

const (
	kindMiss reqKind = iota
	kindHit
	kindEvents
)

func (k reqKind) String() string {
	return [...]string{"miss", "hit", "events"}[k]
}

// request is one scheduled operation; spec indexes schedule.specs.
type request struct {
	due   time.Duration
	phase int
	kind  reqKind
	spec  int
}

// schedule is a workload's whole input, a function of the seed alone: the
// pool specs first, one fresh spec per miss after them, and the requests
// in due order.
type schedule struct {
	specs [][]byte
	reqs  []request
}

// serveApps are the catalog workloads a posted scenario may run.
var serveApps = []string{"povray", "ep", "lu", "mg", "bt", "cg", "sp", "soplex", "mcf", "milc", "libquantum"}

// openCounts is how many requests each open-loop phase of the given length
// holds: exactly rate*phase, so every run has the same sample sizes.
func openCounts(cfg serveConfig, phase time.Duration) []int {
	return []int{int(cfg.loRate*phase.Seconds() + 0.5), int(cfg.hiRate*phase.Seconds() + 0.5)}
}

// buildSchedule draws the request stream: counts[i] requests in phase i,
// due at independent uniform times within it, which is a Poisson process
// conditioned on its count. A closed loop ignores the due times.
func buildSchedule(seed uint64, cfg serveConfig, counts []int, phase time.Duration) (*schedule, error) {
	rng := sim.NewRNG(seed)
	sch := &schedule{}
	newSpec := func() error {
		b, err := json.Marshal(scenarioFor(rng, seed, len(sch.specs), cfg.specHorizon))
		if err != nil {
			return err
		}
		sch.specs = append(sch.specs, b)
		return nil
	}
	for i := 0; i < cfg.pool; i++ {
		if err := newSpec(); err != nil {
			return nil, err
		}
	}
	for ph, n := range counts {
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = time.Duration(ph)*phase + time.Duration(rng.Float64()*float64(phase))
		}
		slices.Sort(dues)
		for _, due := range dues {
			rq := request{due: due, phase: ph}
			switch u := rng.Float64(); {
			case u < cfg.missShare:
				rq.kind, rq.spec = kindMiss, len(sch.specs)
				if err := newSpec(); err != nil {
					return nil, err
				}
			case u < cfg.missShare+cfg.hitShare:
				rq.kind, rq.spec = kindHit, rng.Intn(cfg.pool)
			default:
				rq.kind, rq.spec = kindEvents, rng.Intn(cfg.pool)
			}
			sch.reqs = append(sch.reqs, rq)
		}
	}
	return sch, nil
}

// scenarioFor draws one two-VM scenario. The spec seed is unique per
// index, so every spec has its own cache key.
func scenarioFor(rng *sim.RNG, seed uint64, index int, horizon time.Duration) vprobe.ScenarioSpec {
	scheds := vprobe.Schedulers()
	pick := func(n int) []vprobe.AppSpec {
		out := make([]vprobe.AppSpec, n)
		for i := range out {
			out[i] = vprobe.AppSpec{Name: serveApps[rng.Intn(len(serveApps))]}
		}
		return out
	}
	return vprobe.ScenarioSpec{
		Version:   "v1",
		Scheduler: string(scheds[rng.Intn(len(scheds))]),
		Seed:      seed<<24 | uint64(index+1),
		Horizon:   vprobe.SpecDuration(horizon),
		VMs: []vprobe.VMSpec{
			{Name: "vm1", MemoryMB: 4096, VCPUs: 4, Memory: "stripe", FillGuestIdle: true, Apps: pick(2)},
			{Name: "vm2", MemoryMB: 2048, VCPUs: 4, Apps: pick(2)},
		},
	}
}

// liveServer is a vprobe-serve instance on a loopback port.
type liveServer struct {
	hs   *http.Server
	base string
	done chan error
}

// startServer starts a server and waits until it answers /healthz.
func startServer(ctx context.Context, cfg serveConfig, client *http.Client) (*liveServer, error) {
	s := serve.New(serve.Options{MaxConcurrent: cfg.maxConcurrent, RunTimeout: cfg.timeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: cfg.timeout},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	status, _, err := get(ctx, client, ls.base+"/healthz")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz answered %d", status)
	}
	if err != nil {
		ls.stop(ctx)
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return ls, nil
}

// stop shuts the server down and waits for Serve to return.
func (ls *liveServer) stop(ctx context.Context) error {
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sample is one measured request.
type sample struct {
	phase   int
	kind    reqKind
	latency time.Duration // from the due time to the end of the reply
	late    time.Duration // how late the generator sent it
	err     string
	// digest identifies a miss's result for the traced-run comparison.
	digest string
	spanID int
}

// session is one server's lifetime under load: the warm-up pool, then the
// measured requests.
type session struct {
	cfg    serveConfig
	sch    *schedule
	client *http.Client
	srv    *liveServer

	// poolReply[i] is pool spec i's first reply without "cached";
	// poolID[i] is its run id.
	poolReply [][]byte
	poolID    []string

	mu           sync.Mutex
	eventsDigest map[int]string
}

// canonical drops the named keys from a JSON object reply and re-encodes
// it with sorted keys.
func canonical(body []byte, drop ...string) (map[string]json.RawMessage, []byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, nil, fmt.Errorf("reply is not a JSON object: %w", err)
	}
	full := m
	m = make(map[string]json.RawMessage, len(full))
	for k, v := range full {
		m[k] = v
	}
	for _, k := range drop {
		delete(m, k)
	}
	b, err := json.Marshal(m)
	return full, b, err
}

// closedLoop calls do(i) for i in [0, n) from conns clients, each taking
// the next index as soon as its last call returns, and returns the loop's
// wall time.
func (s *session) closedLoop(ctx context.Context, n int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < s.cfg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return now().Sub(start)
}

// warmUp posts every pool spec in a closed loop and keeps each first reply
// for the cache-hit comparison.
func (s *session) warmUp(ctx context.Context, res *result) error {
	s.poolReply = make([][]byte, s.cfg.pool)
	s.poolID = make([]string, s.cfg.pool)
	errs := make([]error, s.cfg.pool)
	s.closedLoop(ctx, s.cfg.pool, func(i int) { errs[i] = s.warmOne(ctx, i) })
	for i, err := range errs {
		res.attempted++
		if err != nil {
			res.fail("warm-up spec %d: %v", i, err)
		}
	}
	return ctx.Err()
}

func (s *session) warmOne(ctx context.Context, i int) error {
	status, body, err := post(ctx, s.client, s.srv.base+"/v1/simulations", s.sch.specs[i])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	full, canon, err := canonical(body, "cached")
	if err != nil {
		return err
	}
	if string(full["state"]) != `"done"` || full["cached"] != nil {
		return fmt.Errorf("first post is not a fresh completed run")
	}
	if err := json.Unmarshal(full["id"], &s.poolID[i]); err != nil {
		return fmt.Errorf("run id: %w", err)
	}
	s.poolReply[i] = canon
	return nil
}

// openLoop sends every request at its due time, whatever the server's
// state, on its own goroutine; the transport's connection cap queues
// what the server cannot take.
func (s *session) openLoop(ctx context.Context, tr *tracer, parent int) ([]sample, int, error) {
	samples := make([]sample, len(s.sch.reqs))
	var outstanding atomic.Int64
	backlog := 0
	var wg sync.WaitGroup
	start := now()
	for i, rq := range s.sch.reqs {
		due := start.Add(rq.due)
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		if n := int(outstanding.Add(1)); n > backlog {
			backlog = n
		}
		wg.Add(1)
		go func(i int, rq request, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			samples[i] = s.send(ctx, rq, due, tr, parent)
		}(i, rq, due)
	}
	wg.Wait()
	return samples, backlog, ctx.Err()
}

func (s *session) send(ctx context.Context, rq request, due time.Time, tr *tracer, parent int) sample {
	sm := sample{phase: rq.phase, kind: rq.kind, late: now().Sub(due)}
	var status int
	var body []byte
	var err error
	if rq.kind == kindEvents {
		status, body, err = get(ctx, s.client, s.srv.base+"/v1/runs/"+s.poolID[rq.spec]+"/events")
	} else {
		status, body, err = post(ctx, s.client, s.srv.base+"/v1/simulations", s.sch.specs[rq.spec])
	}
	end := now()
	sm.latency = end.Sub(due)
	sm.spanID = tr.add(parent, "request "+rq.kind.String(), due, end, "spec", strconv.Itoa(rq.spec))
	switch {
	case err != nil:
		sm.err = err.Error()
	case status != http.StatusOK:
		sm.err = fmt.Sprintf("status %d: %s", status, firstLine(body))
	default:
		sm.digest, err = s.verify(rq, body)
		if err != nil {
			sm.err = err.Error()
		}
	}
	return sm
}

// verify checks one reply: a miss is a fresh completed run, a hit is
// byte-identical to the spec's first reply apart from "cached", and an
// event stream never changes between reads of the same run.
func (s *session) verify(rq request, body []byte) (string, error) {
	switch rq.kind {
	case kindMiss:
		full, canon, err := canonical(body, "id")
		if err != nil {
			return "", err
		}
		if string(full["state"]) != `"done"` || full["cached"] != nil {
			return "", fmt.Errorf("miss spec %d: not a fresh completed run", rq.spec)
		}
		return digest(canon), nil
	case kindHit:
		full, canon, err := canonical(body, "cached")
		if err != nil {
			return "", err
		}
		if string(full["cached"]) != "true" {
			return "", fmt.Errorf("hit spec %d: reply not served from the cache", rq.spec)
		}
		if !bytes.Equal(canon, s.poolReply[rq.spec]) {
			return "", fmt.Errorf("hit spec %d: cached reply differs from the first reply", rq.spec)
		}
		return "", nil
	default:
		d := digest(body)
		s.mu.Lock()
		defer s.mu.Unlock()
		if first, ok := s.eventsDigest[rq.spec]; ok && first != d {
			return "", fmt.Errorf("events of pool run %d changed between reads", rq.spec)
		}
		s.eventsDigest[rq.spec] = d
		return "", nil
	}
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// cacheCounters reads the server's own cache hit and miss totals.
func (s *session) cacheCounters(ctx context.Context) (hits, misses float64, err error) {
	status, body, err := get(ctx, s.client, s.srv.base+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("/metrics answered %d", status)
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "vprobe_serve_cache_hits_total":
			dst = &hits
		case "vprobe_serve_cache_misses_total":
			dst = &misses
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, fmt.Errorf("/metrics %s: %w", name, err)
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks the cache counters")
	}
	return hits, misses, nil
}

// phaseStats are one session's measurements. wall and cpu cover the
// measured requests, not the pool warm-up.
type phaseStats struct {
	samples   []sample
	backlog   int
	wall, cpu time.Duration
}

// startTimed starts a server cfg.setupReps times, timing each start, and
// keeps the last one running.
func (s *session) startTimed(ctx context.Context, setup *setupClock) error {
	return setup.measure(s.cfg.setupReps, func(last bool) error {
		ls, err := startServer(ctx, s.cfg, s.client)
		if err != nil || last {
			s.srv = ls
			return err
		}
		s.client.CloseIdleConnections()
		return ls.stop(ctx)
	})
}

// runSession starts a server, warms it up, sends the schedule's requests
// (at their due times with open set, else back to back), checks every
// reply and the server's cache counters, and stops the server.
func runSession(ctx context.Context, s *session, open bool, tr *tracer, parent int, setup *setupClock, res *result) (st *phaseStats, err error) {
	if err := s.startTimed(ctx, setup); err != nil {
		return nil, err
	}
	defer func() {
		s.client.CloseIdleConnections()
		if serr := s.srv.stop(ctx); err == nil && serr != nil {
			st, err = nil, serr
		}
	}()
	if err := s.warmUp(ctx, res); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	st = &phaseStats{}
	if open {
		st.samples, st.backlog, err = s.openLoop(ctx, tr, parent)
	} else {
		st.samples = make([]sample, len(s.sch.reqs))
		st.wall = s.closedLoop(ctx, len(st.samples), func(i int) {
			st.samples[i] = s.send(ctx, s.sch.reqs[i], now(), nil, 0)
		})
		err = ctx.Err()
	}
	st.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	var hits, misses float64
	for _, sm := range st.samples {
		res.attempted++
		if sm.err != "" {
			res.fail("%s request: %s", sm.kind, sm.err)
		}
		switch sm.kind {
		case kindHit:
			hits++
		case kindMiss:
			misses++
		}
	}
	srvHits, srvMisses, err := s.cacheCounters(ctx)
	if err != nil {
		return nil, err
	}
	if srvHits != hits || srvMisses != misses+float64(s.cfg.pool) {
		res.checkFailed("server counted %v cache hits and %v misses; the client sent %v and %v (plus %d warm-up)",
			srvHits, srvMisses, hits, misses, s.cfg.pool)
	}
	return st, nil
}

func newClient(cfg serveConfig) *http.Client {
	return &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     cfg.conns,
			MaxIdleConnsPerHost: cfg.conns,
			DisableCompression:  true,
		},
	}
}

func newSession(cfg serveConfig, sch *schedule, client *http.Client) *session {
	return &session{cfg: cfg, sch: sch, client: client, eventsDigest: map[int]string{}}
}

func runServe(ctx context.Context, cfg serveConfig, rc runConfig) (*result, error) {
	res := newResult()
	client := newClient(cfg)
	defer client.CloseIdleConnections()
	var setup setupClock
	if rc.trace {
		return res, traceServe(ctx, cfg, rc, client, &setup, res)
	}

	// Every round sends the same requests to a fresh server, so every
	// round does the same work. The first round warms the process up and
	// is the reference the others must reproduce.
	sch, err := buildSchedule(rc.seed, cfg, []int{cfg.roundRequests}, 0)
	if err != nil {
		return nil, err
	}
	var first *session
	var firstSt *phaseStats
	var walls, cpus []float64
	for r := 0; r <= passes(rc.seconds, cfg.nominalRound); r++ {
		s := newSession(cfg, sch, client)
		st, err := runSession(ctx, s, false, nil, 0, &setup, res)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstSt = s, st
			continue
		}
		compareSessions(first, firstSt, s, st, res)
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
	}
	res.note("round wall_s %v cpu_s %v", walls, cpus)
	res.values["setup_s"] = setup.median()
	res.values["wall_s"] = median(walls)
	res.values["cpu_s"] = median(cpus)
	return res, nil
}

// traceServe runs the open-loop schedule against a fresh server plainly,
// then again against another while recording a span per request, times
// spec decoding and compilation outside the server, and reports
// per-layer metrics.
func traceServe(ctx context.Context, cfg serveConfig, rc runConfig, client *http.Client, setup *setupClock, res *result) error {
	phase := cfg.phase
	if phase == 0 {
		phase = time.Duration(rc.seconds / 2 * float64(time.Second))
	}
	sch, err := buildSchedule(rc.seed, cfg, openCounts(cfg, phase), phase)
	if err != nil {
		return err
	}
	plain := newSession(cfg, sch, client)
	plainSt, err := runSession(ctx, plain, true, nil, 0, setup, res)
	if err != nil {
		return err
	}
	v := res.values
	var byPhase [2][]float64
	var byKind [3][]float64
	var late, all []float64
	for _, sm := range plainSt.samples {
		ms := float64(sm.latency.Nanoseconds()) / 1e6
		byPhase[sm.phase] = append(byPhase[sm.phase], ms)
		byKind[sm.kind] = append(byKind[sm.kind], ms)
		late = append(late, float64(sm.late.Nanoseconds())/1e6)
		all = append(all, ms)
	}
	res.pct("serve.lo.p50_ms", byPhase[0], 0.50)
	res.pct("serve.lo.p99_ms", byPhase[0], 0.99)
	res.pct("serve.hi.p50_ms", byPhase[1], 0.50)
	res.pct("serve.hi.p99_ms", byPhase[1], 0.99)
	res.pct("serve.miss_ms.p50", byKind[kindMiss], 0.50)
	res.pct("serve.miss_ms.p99", byKind[kindMiss], 0.99)
	res.pct("serve.hit_ms.p50", byKind[kindHit], 0.50)
	res.pct("serve.hit_ms.p99", byKind[kindHit], 0.99)
	res.pct("serve.events_get_ms.p50", byKind[kindEvents], 0.50)
	res.pct("serve.gen_late_ms.p99", late, 0.99)
	v["serve.backlog_max"] = float64(plainSt.backlog)
	posts := len(byKind[kindHit]) + len(byKind[kindMiss])
	v["serve.cache_hit_ratio"] = ratio(float64(len(byKind[kindHit])), float64(posts))

	tr := newTracer()
	root := tr.begin(0, "workload "+cfg.name)
	traced := newSession(cfg, sch, client)
	st, err := runSession(ctx, traced, true, tr, root, setup, res)
	if err != nil {
		return err
	}
	compareSessions(plain, plainSt, traced, st, res)

	decode, compile, err := timeSpecLayer(traced.sch, st.samples, tr)
	if err != nil {
		return err
	}
	tr.end(root)
	path, err := tr.write(rc.traceDir)
	if err != nil {
		return err
	}
	res.note("spans written to %s", path)
	res.pct("spec.decode_validate_us.p50", decode, 0.50)
	res.pct("spec.compile_us.p50", compile, 0.50)

	var tracedAll []float64
	for _, sm := range st.samples {
		tracedAll = append(tracedAll, float64(sm.latency.Nanoseconds())/1e6)
	}
	v["trace.overhead_ratio"] = ratio(median(tracedAll), median(all))
	specMS := (v["spec.decode_validate_us.p50"] + v["spec.compile_us.p50"]) / 1e3
	v["unexplained_share"] = 1 - ratio(specMS, v["serve.miss_ms.p50"])
	return nil
}

// compareSessions checks that a session on the same schedule served the
// same results as the reference session: every miss and every pool spec,
// apart from run ids.
func compareSessions(ref *session, refSt *phaseStats, s *session, st *phaseStats, res *result) {
	for i := range refSt.samples {
		a, b := refSt.samples[i], st.samples[i]
		if a.kind == kindMiss && a.err == "" && b.err == "" && a.digest != b.digest {
			res.checkFailed("miss spec %d: result differs from the reference session's", ref.sch.reqs[i].spec)
		}
	}
	for i := range ref.poolReply {
		_, a, errA := canonical(ref.poolReply[i], "id")
		_, b, errB := canonical(s.poolReply[i], "id")
		if errA == nil && errB == nil && !bytes.Equal(a, b) {
			res.checkFailed("pool spec %d: result differs from the reference session's", i)
		}
	}
}

// specSampleCap bounds how many miss specs are decoded and compiled
// outside the server for the spec layer's timings.
const specSampleCap = 400

// timeSpecLayer decodes, validates and compiles miss specs the way the
// server does, outside it, and returns the per-spec times in
// microseconds. Each timing is recorded as a child of its request's span.
func timeSpecLayer(sch *schedule, samples []sample, tr *tracer) (decode, compile []float64, err error) {
	for i, rq := range sch.reqs {
		if rq.kind != kindMiss || len(decode) == specSampleCap {
			continue
		}
		start := now()
		var sp vprobe.ScenarioSpec
		dec := json.NewDecoder(bytes.NewReader(sch.specs[rq.spec]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return nil, nil, fmt.Errorf("decode spec %d: %w", rq.spec, err)
		}
		if err := sp.Validate(); err != nil {
			return nil, nil, fmt.Errorf("validate spec %d: %w", rq.spec, err)
		}
		mid := now()
		if _, _, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{}); err != nil {
			return nil, nil, fmt.Errorf("compile spec %d: %w", rq.spec, err)
		}
		end := now()
		tr.add(samples[i].spanID, "decode", start, mid)
		tr.add(samples[i].spanID, "compile", mid, end)
		decode = append(decode, float64(mid.Sub(start).Nanoseconds())/1e3)
		compile = append(compile, float64(end.Sub(mid).Nanoseconds())/1e3)
	}
	return decode, compile, nil
}
