package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vprobe/internal/sim"
)

// recordDecision records a small but complete placement decision tree on
// tr: a vm lifecycle span, a place decision with filter/score/candidate
// sub-spans, and a preemption priced by the cost model. Used by the
// determinism, round-trip, and explain tests below.
func recordDecision(tr *Tracer) {
	vm := tr.Begin(0, NoSpan, SpanVM, "", "vm1", "vm1 lifecycle")
	place := tr.Begin(sim.Time(sim.Second), vm, SpanPlace, "host0", "vm1", "place vm1")
	tr.SetScore(place, 236.67)
	f := tr.Point(sim.Time(sim.Second), place, SpanFilter, "", "vm1", "capacity",
		"admitted 2, vetoed 1; host2: out of memory")
	_ = f
	sc := tr.Point(sim.Time(sim.Second), place, SpanScore, "host0", "vm1", "numa-fit", "fits node 0")
	tr.SetScore(sc, 86.67)
	c0 := tr.Point(sim.Time(sim.Second), place, SpanCandidate, "host0", "vm1", "host0", "winner")
	tr.SetScore(c0, 236.67)
	c1 := tr.Point(sim.Time(sim.Second), place, SpanCandidate, "host1", "vm1", "host1", "runner-up")
	tr.SetScore(c1, 120)
	tr.End(place, sim.Time(sim.Second))
	pre := tr.Point(sim.Time(2*sim.Second), vm, SpanPreempt, "host0", "vm1",
		"preempt vm1", "evicted for vm9 (priority 10 > 1)")
	tr.SetCost(pre, sim.Duration(1500))
	tr.End(vm, sim.Time(3*sim.Second))
}

func TestTracerDeterministicIDs(t *testing.T) {
	a, b := NewTracer(42, 0), NewTracer(42, 0)
	recordDecision(a)
	recordDecision(b)
	as, bs := a.Spans(), b.Spans()
	if len(as) == 0 || len(as) != len(bs) {
		t.Fatalf("span counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].ID != bs[i].ID || as[i].Parent != bs[i].Parent {
			t.Fatalf("span %d: same seed produced different IDs: %x/%x vs %x/%x",
				i, as[i].ID, as[i].Parent, bs[i].ID, bs[i].Parent)
		}
	}
	other := NewTracer(43, 0)
	recordDecision(other)
	if other.Spans()[0].ID == as[0].ID {
		t.Fatal("different seeds produced the same span ID")
	}
	seen := map[uint64]bool{}
	for _, s := range as {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %x within one run", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestTracerNilAndNoSpanSafe(t *testing.T) {
	var tr *Tracer
	if ref := tr.Begin(0, NoSpan, SpanVM, "", "vm", "x"); ref != NoSpan {
		t.Fatalf("nil tracer Begin returned %d, want NoSpan", ref)
	}
	tr.End(NoSpan, 0)
	tr.CloseOpen(0)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer should report empty state")
	}
	live := NewTracer(1, 0)
	live.SetScore(NoSpan, 1)
	live.SetCost(NoSpan, 1)
	live.SetDetail(NoSpan, "x")
	live.Note(NoSpan, "x")
	live.End(NoSpan, 0)
	if live.Len() != 0 {
		t.Fatal("decorating NoSpan must not record spans")
	}
}

func TestTracerLimitDrops(t *testing.T) {
	tr := NewTracer(1, 3)
	var last SpanRef
	for i := 0; i < 5; i++ {
		last = tr.Begin(sim.Time(i), NoSpan, SpanPoint, "", "", "p")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	if last != NoSpan {
		t.Fatalf("over-limit Begin returned %d, want NoSpan", last)
	}
}

func TestTracerCloseOpen(t *testing.T) {
	tr := NewTracer(1, 0)
	ref := tr.Begin(sim.Time(10), NoSpan, SpanDomain, "host0", "vm1", "vm1")
	tr.CloseOpen(sim.Time(99))
	s := tr.Spans()[0]
	if s.End != sim.Time(99) {
		t.Fatalf("CloseOpen end = %d, want 99", s.End)
	}
	// Explicit End after CloseOpen must not reopen or move the span.
	tr.End(ref, sim.Time(500))
	if tr.Spans()[0].End != sim.Time(99) {
		t.Fatal("End after close moved the span")
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(7, 0)
	recordDecision(tr)
	var buf bytes.Buffer
	if err := tr.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("round trip lost spans: %d vs %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Kind != w.Kind ||
			g.Name != w.Name || g.Host != w.Host || g.VM != w.VM ||
			g.Start != w.Start || g.End != w.End || g.Detail != w.Detail {
			t.Fatalf("span %d changed in round trip:\n got %+v\nwant %+v", i, g, w)
		}
		if g.HasScore() != w.HasScore() || (w.HasScore() && g.Score != w.Score) {
			t.Fatalf("span %d score lost: %+v vs %+v", i, g, w)
		}
		if g.HasCost() != w.HasCost() || (w.HasCost() && g.Cost != w.Cost) {
			t.Fatalf("span %d cost lost: %+v vs %+v", i, g, w)
		}
	}
}

func TestSpanJSONLEmptyStream(t *testing.T) {
	tr := NewTracer(1, 0)
	var buf bytes.Buffer
	if err := tr.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty tracer wrote %d bytes, want a zero-line stream", buf.Len())
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("empty stream parsed to %d spans", len(spans))
	}
}

func TestReadSpansRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json\n",
		`{"id":"zz","kind":"vm","name":"x","start":0,"end":0}` + "\n",
		`{"id":"1","parent":"zz","kind":"vm","name":"x","start":0,"end":0}` + "\n",
	} {
		if _, err := ReadSpans(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadSpans accepted %q", bad)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(7, 0)
	recordDecision(tr)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// metadata: process_name + main + 2 hosts; then one X event per span.
	want := 4 + tr.Len()
	if n != want {
		t.Fatalf("validator counted %d events, want %d", n, want)
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"not array":    `{"a":1}`,
		"empty":        `[]`,
		"missing ph":   `[{"name":"x","pid":0,"tid":0}]`,
		"missing dur":  `[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]`,
		"negative ts":  `[{"name":"x","ph":"X","ts":-1,"dur":0,"pid":0,"tid":0}]`,
		"weird phase":  `[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}]`,
		"string pid":   `[{"name":"x","ph":"M","pid":"0","tid":0}]`,
		"missing name": `[{"ph":"M","pid":0,"tid":0}]`,
	} {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Fatalf("%s: validator accepted %s", name, data)
		}
	}
}

func TestSpanIndexExplain(t *testing.T) {
	tr := NewTracer(7, 0)
	recordDecision(tr)
	ix := NewSpanIndex(tr.Spans())
	if ix.Len() != tr.Len() {
		t.Fatalf("index Len = %d, want %d", ix.Len(), tr.Len())
	}
	if vms := ix.VMs(); len(vms) != 1 || vms[0] != "vm1" {
		t.Fatalf("VMs = %v, want [vm1]", vms)
	}

	why, err := ix.ExplainWhy("vm1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"→ host0", "total 236.67", "capacity", "numa-fit", "+86.67", "host1"} {
		if !strings.Contains(why, want) {
			t.Fatalf("ExplainWhy missing %q:\n%s", want, why)
		}
	}

	// host2 was vetoed by the capacity filter; host1 lost on score.
	whyNot, err := ix.ExplainWhyNot("vm1", "host2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(whyNot, "vetoed by capacity") || !strings.Contains(whyNot, "out of memory") {
		t.Fatalf("ExplainWhyNot(host2) missing veto reason:\n%s", whyNot)
	}
	whyNot, err = ix.ExplainWhyNot("vm1", "host1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(whyNot, "scored 120.00 vs winner 236.67") {
		t.Fatalf("ExplainWhyNot(host1) missing score gap:\n%s", whyNot)
	}
	winner, err := ix.ExplainWhyNot("vm1", "host0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(winner, "WAS placed") {
		t.Fatalf("ExplainWhyNot(winner) = %q", winner)
	}

	pre, err := ix.ExplainPreempted("vm1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pre, "evicted for vm9") || !strings.Contains(pre, "cost 1.500ms") {
		t.Fatalf("ExplainPreempted missing chain:\n%s", pre)
	}

	rej, err := ix.ExplainRejected("vm1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rej, "never rejected") {
		t.Fatalf("ExplainRejected = %q", rej)
	}

	tl, err := ix.ExplainVM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl, "timeline of vm1") || !strings.Contains(tl, "preempt") {
		t.Fatalf("ExplainVM missing spans:\n%s", tl)
	}

	sum := ix.Summary()
	for _, want := range []string{"place", "filter", "candidate", "vms: vm1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("Summary missing %q:\n%s", want, sum)
		}
	}

	if _, err := ix.ExplainWhy("ghost"); err == nil {
		t.Fatal("ExplainWhy of unknown VM should error")
	}
	if _, err := ix.ExplainPreempted("ghost"); err == nil {
		t.Fatal("ExplainPreempted of unknown VM should error")
	}
}

// TestSpanIndexExplainDispatch pins Explain against the per-query
// methods it dispatches to, and its error classes.
func TestSpanIndexExplainDispatch(t *testing.T) {
	tr := NewTracer(7, 0)
	recordDecision(tr)
	ix := NewSpanIndex(tr.Spans())
	direct := map[string]func() (string, error){
		"why":       func() (string, error) { return ix.ExplainWhy("vm1") },
		"why-not":   func() (string, error) { return ix.ExplainWhyNot("vm1", "host2") },
		"rejected":  func() (string, error) { return ix.ExplainRejected("vm1") },
		"preempted": func() (string, error) { return ix.ExplainPreempted("vm1") },
		"timeline":  func() (string, error) { return ix.ExplainVM("vm1") },
	}
	queries := strings.Split(ExplainQueries, ", ")
	for _, q := range queries {
		want, err := direct[q]()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ix.Explain(q, "vm1", "host2"); err != nil || got != want {
			t.Errorf("Explain(%s) = %q, %v; want %q", q, got, err, want)
		}
	}
	if len(queries) != len(direct) {
		t.Errorf("ExplainQueries = %q, want the %d queries above", ExplainQueries, len(direct))
	}
	for _, bad := range [][2]string{{"frob", "host2"}, {"why-not", ""}} {
		if _, err := ix.Explain(bad[0], "vm1", bad[1]); !errors.Is(err, ErrExplainQuery) {
			t.Errorf("Explain(%q, host %q) err = %v, want ErrExplainQuery", bad[0], bad[1], err)
		}
	}
	if _, err := ix.Explain("why", "ghost", ""); err == nil || errors.Is(err, ErrExplainQuery) {
		t.Errorf("Explain(why, ghost) err = %v, want a not-found error", err)
	}
}

func TestSpanIndexRejectedDecision(t *testing.T) {
	tr := NewTracer(9, 0)
	vm := tr.Begin(0, NoSpan, SpanVM, "", "vm2", "vm2 lifecycle")
	place := tr.Begin(0, vm, SpanPlace, "", "vm2", "place vm2")
	tr.Point(0, place, SpanFilter, "", "vm2", "capacity", "admitted 0, vetoed 1; host0: out of memory")
	tr.End(place, 0)
	tr.Point(0, vm, SpanReject, "", "vm2", "reject vm2", "no host fits after 3 retries")
	tr.End(vm, 0)

	ix := NewSpanIndex(tr.Spans())
	out, err := ix.ExplainRejected("vm2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rejected at", "no host fits after 3 retries", "no host fits", "capacity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainRejected missing %q:\n%s", want, out)
		}
	}
	if sum := ix.Summary(); !strings.Contains(sum, "reject") {
		t.Fatalf("Summary missing reject kind:\n%s", sum)
	}
}

func TestSpanIndexEmpty(t *testing.T) {
	ix := NewSpanIndex(nil)
	if ix.Len() != 0 || len(ix.VMs()) != 0 {
		t.Fatal("empty index should be empty")
	}
	if sum := ix.Summary(); !strings.Contains(sum, "empty trace") {
		t.Fatalf("Summary of empty index = %q", sum)
	}
}

// TestTracerSeal checks that Seal cuts a last chunk to its spans and
// leaves a full one alone, that both exports are unchanged by it, and
// that a span begun after the seal is dropped.
func TestTracerSeal(t *testing.T) {
	export := func(tr *Tracer) string {
		var b bytes.Buffer
		if err := tr.WriteSpansJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, n := range []int{0, 5, spanChunkRows, spanChunkRows + 6} {
		tr := NewTracer(7, 0)
		for i := 0; i < n; i++ {
			tr.Point(sim.Time(i), NoSpan, SpanPoint, "host0", "vm1", "p", "")
		}
		before := export(tr)
		tr.Seal()
		held := 0
		for _, c := range tr.chunks {
			held += len(c)
			if len(c) != cap(c) {
				t.Errorf("n=%d: sealed chunk at %d/%d", n, len(c), cap(c))
			}
		}
		if held != n {
			t.Errorf("n=%d: sealed tracer holds %d rows", n, held)
		}
		if after := export(tr); after != before {
			t.Errorf("n=%d: the seal changed the exports", n)
		}
		if ref := tr.Point(sim.Time(n), NoSpan, SpanPoint, "host1", "vm2", "late", ""); ref != NoSpan ||
			tr.Len() != n || tr.Dropped() != 1 {
			t.Errorf("n=%d: a span begun after the seal got ref %d (len %d, dropped %d)", n, ref, tr.Len(), tr.Dropped())
		}
	}
}
