// Span recording for cluster runs: the placement flight recorder. Every
// control-plane decision — admission, retry, rejection, preemption, gang
// reserve/commit, backfill, descheduling, migration — records spans under
// the arriving VM's lifecycle span (rendered by record, record.go), and
// each placement decision re-derives its full per-plugin filter/score
// breakdown via Pipeline.Explain (which -place-check proves equivalent to
// the incremental score cache's answer).
//
// All recording happens on the cluster engine goroutine, where decisions
// are already serialized at every worker count, so span files are
// byte-identical at workers 1/4/8. Recording is read-only over model
// state, consumes no randomness, and schedules no events: simulation
// output is byte-identical with spans on or off. None of these functions
// is reachable from a hot-path root (decision sites sit above
// Cluster.place, never inside it), so recording may allocate freely.
package cluster

import (
	"fmt"
	"strings"

	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

// spanTopCandidates caps the per-decision candidate spans: enough to see
// who the winner beat, without recording a thousand-host fleet per arrival.
const spanTopCandidates = 4

// spanVetoCap caps the per-plugin veto reasons recorded in one filter
// span's detail string.
const spanVetoCap = 16

// clusterSpans binds a Cluster to a span tracer. A nil *clusterSpans is
// the tracing-off state.
type clusterSpans struct {
	c   *Cluster
	t   *telemetry.Tracer
	run telemetry.SpanRef
	vm  []telemetry.SpanRef       // by VM.ID
	mig map[int]telemetry.SpanRef // VM.ID → in-flight migrate span
}

// attachSpans binds t as the cluster's flight recorder and opens the root
// run span.
func (c *Cluster) attachSpans(t *telemetry.Tracer) {
	sp := &clusterSpans{c: c, t: t, mig: map[int]telemetry.SpanRef{}}
	sp.run = t.Begin(0, telemetry.NoSpan, telemetry.SpanRun, "", "",
		fmt.Sprintf("cluster: %d hosts, seed %d", len(c.hosts), c.cfg.Seed))
	c.spans = sp
}

// vmRef returns (growing on demand) the lifecycle span handle of vm.
func (sp *clusterSpans) vmRef(vm *VM) telemetry.SpanRef {
	for len(sp.vm) <= vm.ID {
		sp.vm = append(sp.vm, telemetry.NoSpan)
	}
	return sp.vm[vm.ID]
}

// filterDetail renders one filter plugin's verdict for a span detail.
func filterDetail(fr FilterReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "admitted %d", fr.Admitted)
	if len(fr.Vetoes) == 0 {
		b.WriteString(", vetoed 0")
		return b.String()
	}
	fmt.Fprintf(&b, ", vetoed %d:", len(fr.Vetoes))
	for i, v := range fr.Vetoes {
		if i == spanVetoCap {
			fmt.Fprintf(&b, " … (+%d more)", len(fr.Vetoes)-spanVetoCap)
			break
		}
		fmt.Fprintf(&b, " %s: %s;", v.Host, v.Reason)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// scoreDetail renders a candidate's per-plugin sum for a span detail.
func scoreDetail(scores []ScoreReport) string {
	parts := make([]string, len(scores))
	for i, s := range scores {
		parts[i] = fmt.Sprintf("%s %.2f", s.Plugin, s.Weighted)
	}
	return strings.Join(parts, " + ")
}

// placeDecision records one placement decision with its complete
// per-plugin provenance: the place span, one filter span per filter
// plugin, the winner's per-scorer score spans, and the top candidate
// spans. views must be the exact views the decision ran over, before any
// mutation from acting on the decision.
func (sp *clusterSpans) placeDecision(vm *VM, views []*HostView, chosen *HostView, err error, attempt int) {
	now := sp.c.engine.Now()
	ex := sp.c.pipeline.Explain(&vm.Spec, views, spanTopCandidates)
	host := ""
	if chosen != nil {
		host = chosen.Name
	}
	ps := sp.t.Begin(now, sp.vmRef(vm), telemetry.SpanPlace, host, vm.Spec.Name,
		fmt.Sprintf("place %s attempt %d", vm.Spec.Name, attempt))
	if err != nil {
		sp.t.SetDetail(ps, err.Error())
	} else if len(ex.Candidates) > 0 {
		sp.t.SetScore(ps, ex.Candidates[0].Total)
		if ex.Candidates[0].Host != host {
			// Should be impossible: Explain ranks as Place does, and
			// -place-check proves Place ≡ the incremental cache. Record loudly, not
			// silently, if the invariant ever breaks.
			sp.t.Note(ps, fmt.Sprintf("MISMATCH: decision chose %s, explain computed %s",
				host, ex.Candidates[0].Host))
		}
	}
	for _, fr := range ex.Filters {
		sp.t.Point(now, ps, telemetry.SpanFilter, host, vm.Spec.Name, fr.Plugin, filterDetail(fr))
	}
	if err == nil && len(ex.Candidates) > 0 {
		win := ex.Candidates[0]
		for _, sr := range win.Scores {
			ref := sp.t.Point(now, ps, telemetry.SpanScore, win.Host, vm.Spec.Name, sr.Plugin,
				fmt.Sprintf("raw %.2f × weight %.2f", sr.Raw, sr.Weight))
			sp.t.SetScore(ref, sr.Weighted)
		}
		for _, cand := range ex.Candidates {
			ref := sp.t.Point(now, ps, telemetry.SpanCandidate, cand.Host, vm.Spec.Name,
				"candidate "+cand.Host, scoreDetail(cand.Scores))
			sp.t.SetScore(ref, cand.Total)
		}
	}
	sp.t.End(ps, now)
}

// closeRun ends every still-open span at the horizon.
func (sp *clusterSpans) closeRun(at sim.Time) {
	if sp == nil {
		return
	}
	sp.t.CloseOpen(at)
}
