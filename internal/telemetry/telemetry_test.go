package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vprobe/internal/sim"
)

func TestHandleBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	h := r.Histogram("h_us", "a histogram", []float64{10, 100})

	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %v, want 3", c.Value())
	}
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v, want 5", g.Value())
	}
	for _, v := range []float64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("histogram count=%d sum=%v, want 3/555", h.Count(), h.Sum())
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate id", func() { r.Counter("dup_total", "x") })
	mustPanic("kind clash", func() { r.Gauge("dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("1bad", "x") })
	mustPanic("empty buckets", func() { r.Histogram("h", "x", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("h", "x", []float64{2, 1}) })

	// Same name with different labels is two series, not a duplicate.
	r.Gauge("labeled", "x", Label{Key: "host", Value: "host0"})
	r.Gauge("labeled", "x", Label{Key: "host", Value: "host1"})

	s := NewSampler(r, sim.Second)
	s.Start(sim.NewEngine())
	mustPanic("register after seal", func() { r.Counter("late_total", "x") })
	mustPanic("hook after start", func() { s.OnSample(func() {}) })
	mustPanic("double start", func() { s.Start(sim.NewEngine()) })
}

// TestWritePrometheusValidates round-trips the exporter through the
// checker the CI lint job uses, and spot-checks the format.
func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("xen_dispatches_total", "dispatches", Label{Key: "host", Value: "host0"})
	g := r.Gauge("xen_runq_depth", "queue depth")
	h := r.Histogram("xen_quantum_us", "quantum length", []float64{100, 30000})
	c.Add(4)
	g.Set(2)
	h.Observe(50)
	h.Observe(50000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE xen_dispatches_total counter",
		`xen_dispatches_total{host="host0"} 4`,
		"# TYPE xen_runq_depth gauge",
		"xen_runq_depth 2",
		"# TYPE xen_quantum_us histogram",
		`xen_quantum_us_bucket{le="100"} 1`,
		`xen_quantum_us_bucket{le="30000"} 1`,
		`xen_quantum_us_bucket{le="+Inf"} 2`,
		"xen_quantum_us_sum 50050",
		"xen_quantum_us_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	series, samples, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateExposition: %v\n%s", err, out)
	}
	if series != 7 || samples != 7 {
		t.Fatalf("series=%d samples=%d, want 7/7", series, samples)
	}
}

// TestWritePrometheusBytes pins the whole exposition of a registry that
// repeats a name under several label sets (one HELP/TYPE pair each),
// escapes a label value, sorts a histogram's labels around "le", and
// formats tiny, huge and infinite values.
func TestWritePrometheusBytes(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cluster_placed_total", "VMs placed", Label{Key: "policy", Value: "numa"}, Label{Key: "host", Value: `h"0\`})
	b := r.Counter("cluster_placed_total", "VMs placed", Label{Key: "policy", Value: "pack"}, Label{Key: "host", Value: "h1"})
	g := r.Gauge("xen_load", "load\twith tab")
	bounds := []float64{0.5, 100, 1e21}
	h0 := r.Histogram("xen_wait_us", "wait", bounds, Label{Key: "node", Value: "0"}, Label{Key: "host", Value: "h0"})
	h1 := r.Histogram("xen_wait_us", "wait", bounds, Label{Key: "node", Value: "1"}, Label{Key: "host", Value: "h0"})
	a.Add(3)
	b.Add(1e-7)
	g.Set(math.Inf(-1))
	h0.Observe(0.25)
	h0.Observe(99.5)
	h1.Observe(1e22)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP cluster_placed_total VMs placed
# TYPE cluster_placed_total counter
cluster_placed_total{host="h\"0\\",policy="numa"} 3
cluster_placed_total{host="h1",policy="pack"} 1e-07
# HELP xen_load load	with tab
# TYPE xen_load gauge
xen_load -Inf
# HELP xen_wait_us wait
# TYPE xen_wait_us histogram
xen_wait_us_bucket{host="h0",le="0.5",node="0"} 1
xen_wait_us_bucket{host="h0",le="100",node="0"} 2
xen_wait_us_bucket{host="h0",le="1e+21",node="0"} 2
xen_wait_us_bucket{host="h0",le="+Inf",node="0"} 2
xen_wait_us_sum{host="h0",node="0"} 99.75
xen_wait_us_count{host="h0",node="0"} 2
xen_wait_us_bucket{host="h0",le="0.5",node="1"} 0
xen_wait_us_bucket{host="h0",le="100",node="1"} 0
xen_wait_us_bucket{host="h0",le="1e+21",node="1"} 0
xen_wait_us_bucket{host="h0",le="+Inf",node="1"} 1
xen_wait_us_sum{host="h0",node="1"} 1e+22
xen_wait_us_count{host="h0",node="1"} 1
`
	if got := buf.String(); got != want {
		t.Errorf("exposition differs\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"no value", "# TYPE a gauge\na\n"},
		{"bad value", "# TYPE a gauge\na one\n"},
		{"no type", "a 1\n"},
		{"bad name", "# TYPE a gauge\n1a 1\n"},
		{"bad label", "# TYPE a gauge\na{k=v} 1\n"},
		{"unterminated", "# TYPE a gauge\na{k=\"v\" 1\n"},
		{"bad comment", "# NOPE a\n"},
	} {
		if _, _, err := ValidateExposition([]byte(tc.in)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestSamplerRing checks cadence (one row per period), hook ordering, and
// the JSONL export shape.
func TestSamplerRing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("depth", "depth", Label{Key: "host", Value: "h0"})
	h := r.Histogram("lat_us", "latency", []float64{10})
	e := sim.NewEngine()
	s := NewSampler(r, 0) // default 1 s
	var hookOrder []int
	s.OnSample(func() { hookOrder = append(hookOrder, 1) })
	s.OnSample(func() { hookOrder = append(hookOrder, 2); g.Set(c.Value()) })
	s.Start(e)

	e.Every(100*sim.Millisecond, 100*sim.Millisecond, "work", func(*sim.Engine) {
		c.Inc()
		h.Observe(5)
	})
	e.RunUntil(sim.Time(5 * sim.Second))

	if s.Rows() != 5 {
		t.Fatalf("rows = %d, want 5 (one per simulated second)", s.Rows())
	}
	if len(hookOrder) != 10 || hookOrder[0] != 1 || hookOrder[1] != 2 {
		t.Fatalf("hook order = %v, want 1,2 pairs", hookOrder)
	}

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("jsonl lines = %d, want 5", len(lines))
	}
	for i, line := range lines {
		var rec map[string]float64
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, line)
		}
		if want := float64(i + 1); rec["t"] != want {
			t.Fatalf("line %d: t=%v, want %v", i, rec["t"], want)
		}
		// Work ticks land at 0.1 s intervals; the tick sharing the sample's
		// timestamp was armed after the sampler's pending event (higher
		// seq), so the row sees the 10k-1 ticks strictly before it.
		if want := float64((i+1)*10 - 1); rec["events_total"] != want {
			t.Fatalf("line %d: events_total=%v, want %v", i, rec["events_total"], want)
		}
		if rec["depth{host=h0}"] != rec["events_total"] {
			t.Fatalf("line %d: hook-set gauge %v != counter %v",
				i, rec["depth{host=h0}"], rec["events_total"])
		}
		if rec["lat_us_count"] != rec["events_total"] {
			t.Fatalf("line %d: lat_us_count=%v, want %v", i, rec["lat_us_count"], rec["events_total"])
		}
	}
}

// TestSamplerReserveExact pins the ring size a run entry point asks for:
// Reserve(horizon/period+2) allocates exactly that many rows, not the
// 2048-row default, and the JSONL and Prometheus exports are byte-identical
// to a default-capacity ring's.
func TestSamplerReserveExact(t *testing.T) {
	const horizon, period = 500 * sim.Millisecond, 100 * sim.Millisecond
	run := func(reserve int) (s *Sampler, series, prom []byte) {
		r := NewRegistry()
		c := r.Counter("events_total", "events")
		h := r.Histogram("lat_us", "latency", []float64{10})
		e := sim.NewEngine()
		s = NewSampler(r, period)
		if reserve > 0 {
			s.Reserve(reserve)
		}
		s.Start(e)
		e.Every(30*sim.Millisecond, 30*sim.Millisecond, "work", func(*sim.Engine) {
			c.Inc()
			h.Observe(7)
		})
		e.RunUntil(sim.Time(horizon))
		var jb, pb bytes.Buffer
		if err := s.WriteJSONL(&jb); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		return s, jb.Bytes(), pb.Bytes()
	}
	want := int(horizon/period) + 2
	exact, series, prom := run(want)
	def, defSeries, defProm := run(0)
	if exact.capRows != want || len(exact.times) != want {
		t.Fatalf("reserved ring holds %d rows (times %d), want %d", exact.capRows, len(exact.times), want)
	}
	if def.capRows != preallocRows {
		t.Fatalf("unreserved ring holds %d rows, want the %d default", def.capRows, preallocRows)
	}
	if exact.Rows() != int(horizon/period) {
		t.Fatalf("reserved ring retained %d samples, want %d", exact.Rows(), int(horizon/period))
	}
	if !bytes.Equal(series, defSeries) || !bytes.Equal(prom, defProm) {
		t.Fatal("exports from the exactly reserved ring differ from the default ring's")
	}
}

// TestSamplerZeroAlloc pins the per-sample cost at zero allocations once
// the ring is preallocated (the sampler's share of the PR's zero-alloc
// contract; the full quantum-loop guardrail lives in internal/xen).
func TestSamplerZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_us", "h", []float64{1, 10, 100})
	e := sim.NewEngine()
	s := NewSampler(r, sim.Second)
	s.OnSample(func() { g.Set(c.Value()) })
	s.Start(e)

	next := sim.Time(0)
	allocs := testing.AllocsPerRun(50, func() {
		c.Inc()
		h.Observe(5)
		next = next.Add(sim.Second)
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("sampling allocates %.1f per period, want 0", allocs)
	}
	if s.Rows() == 0 {
		t.Fatal("no rows sampled; zero-alloc result is vacuous")
	}
}

// TestLayoutsShared checks the intern table: registries that register the
// same series in the same order share one layout and grow nothing, a
// registry that diverges from a known sequence keeps its siblings'
// sequences intact, and a known prefix still gets the duplicate and kind
// checks when a registration leaves it.
func TestLayoutsShared(t *testing.T) {
	build := func(names ...string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			if n == "layout_h" {
				r.Histogram(n, "h", []float64{1, 2})
			} else {
				r.Counter(n, "c", Label{Key: "k", Value: n})
			}
		}
		return r
	}
	a := build("layout_a", "layout_b", "layout_c")
	descs, layouts := Interned()
	b := build("layout_a", "layout_b", "layout_c")
	if a.at != b.at {
		t.Fatal("registries with the same sequence do not share a layout")
	}
	if d, l := Interned(); d != descs || l != layouts {
		t.Fatalf("a repeated sequence grew the intern table from %d/%d to %d/%d", descs, layouts, d, l)
	}
	// Siblings after a shared prefix, and a longer chain after one of them.
	c := build("layout_a", "layout_b", "layout_h")
	d := build("layout_a", "layout_b", "layout_c", "layout_d")
	e := build("layout_a", "layout_b", "layout_e", "layout_h")
	want := map[*Registry]string{
		a: "layout_a layout_b layout_c",
		c: "layout_a layout_b layout_h",
		d: "layout_a layout_b layout_c layout_d",
		e: "layout_a layout_b layout_e layout_h",
	}
	for r, w := range want {
		var got []string
		for _, n := range r.at.seq {
			got = append(got, n.d.name)
		}
		if strings.Join(got, " ") != w {
			t.Errorf("sequence %q, want %q", strings.Join(got, " "), w)
		}
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate after a known prefix", func() {
		r := build("layout_a", "layout_b")
		r.Counter("layout_a", "c", Label{Key: "k", Value: "layout_a"})
	})
	mustPanic("kind clash after a known prefix", func() {
		r := build("layout_a", "layout_b")
		r.Gauge("layout_a", "c")
	})
	// Values are the registry's own, though the layout is shared.
	ca := a.Counter("layout_z", "z")
	cb := b.Counter("layout_z", "z")
	ca.Add(3)
	if cb.Value() != 0 || ca.Value() != 3 {
		t.Fatalf("values leak between registries sharing a layout: %v, %v", ca.Value(), cb.Value())
	}
}

// TestSealKeepsExports checks that sealing a sampler — after a ring that
// wrapped and after one that did not — drops its hooks, cuts the ring to
// the rows it holds, stops sampling, and leaves both exports byte for
// byte as they were.
func TestSealKeepsExports(t *testing.T) {
	for _, reserve := range []int{3, 8} {
		r := NewRegistry()
		c := r.Counter("seal_events_total", "events")
		g := r.Gauge("seal_depth", "depth", Label{Key: "host", Value: "h0"})
		h := r.Histogram("seal_lat_us", "latency", []float64{10, 20})
		e := sim.NewEngine()
		s := NewSampler(r, sim.Second)
		s.OnSample(func() { g.Set(c.Value()) })
		s.Reserve(reserve)
		s.Start(e)
		e.Every(300*sim.Millisecond, 300*sim.Millisecond, "work", func(*sim.Engine) {
			c.Inc()
			h.Observe(float64(c.Value()))
		})
		e.RunUntil(sim.Time(5 * sim.Second))
		export := func() string {
			var b bytes.Buffer
			if err := s.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		before, rows := export(), s.Rows()
		s.Seal()
		if s.hooks != nil || r.ids != nil || r.names != nil {
			t.Fatalf("reserve %d: the sealed sampler keeps its hooks or registration maps", reserve)
		}
		if len(s.times) != rows || len(s.data) != rows*r.at.cells || s.Rows() != rows {
			t.Fatalf("reserve %d: sealed ring holds %d times, %d cells for %d rows",
				reserve, len(s.times), len(s.data), rows)
		}
		if after := export(); after != before {
			t.Fatalf("reserve %d: exports changed at seal:\n%s\nwant\n%s", reserve, after, before)
		}
		e.RunUntil(sim.Time(8 * sim.Second))
		if s.Rows() != rows {
			t.Fatalf("reserve %d: a sealed sampler took %d more rows", reserve, s.Rows()-rows)
		}
		s.Seal()
	}
}
