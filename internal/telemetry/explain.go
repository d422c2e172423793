// Explain: provenance queries over a recorded span file. The engine
// indexes a span slice by ID, parent, and VM, and renders the answers the
// flight recorder exists for — "why did this VM land where it did", "why
// was host H not chosen", "why was it rejected", "who preempted it" —
// from the per-plugin filter/score sub-spans the placement decisions
// recorded. Shared by cmd/vprobe-explain and the vprobe-serve
// /v1/runs/{id}/explain endpoint.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ExplainQueries names the per-VM queries Explain answers, in usage order.
const ExplainQueries = "why, why-not, rejected, preempted, timeline"

var (
	// ErrExplainQuery: Explain was asked a query it does not answer, or a
	// why-not query without a host.
	ErrExplainQuery = errors.New("explain: bad query")

	errUnknownQuery = fmt.Errorf("%w: have "+ExplainQueries, ErrExplainQuery)
	errNoHost       = fmt.Errorf("%w: why-not needs a host", ErrExplainQuery)
)

// SpanIndex is a queryable view over a recorded span slice.
type SpanIndex struct {
	spans    []Span
	byID     map[uint64]int
	children map[uint64][]int // parent ID → child indexes, record order
	byVM     map[string][]int // VM name → span indexes, record order
}

// NewSpanIndex indexes spans (as returned by ReadSpans or Tracer.Spans).
func NewSpanIndex(spans []Span) *SpanIndex {
	ix := &SpanIndex{
		spans:    spans,
		byID:     make(map[uint64]int, len(spans)),
		children: make(map[uint64][]int),
		byVM:     make(map[string][]int),
	}
	for i := range spans {
		s := &spans[i]
		ix.byID[s.ID] = i
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
		if s.VM != "" {
			ix.byVM[s.VM] = append(ix.byVM[s.VM], i)
		}
	}
	return ix
}

// Len returns the number of indexed spans.
func (ix *SpanIndex) Len() int { return len(ix.spans) }

// VMs returns the distinct VM names with at least one span, sorted.
func (ix *SpanIndex) VMs() []string {
	out := make([]string, 0, len(ix.byVM))
	for vm := range ix.byVM {
		out = append(out, vm)
	}
	sort.Strings(out)
	return out
}

// vmSpans returns the indexes of vm's spans of the given kind.
func (ix *SpanIndex) vmSpans(vm string, kind SpanKind) []int {
	var out []int
	for _, i := range ix.byVM[vm] {
		if ix.spans[i].Kind == kind {
			out = append(out, i)
		}
	}
	return out
}

// childrenOf returns the child indexes of span i of the given kind.
func (ix *SpanIndex) childrenOf(i int, kind SpanKind) []int {
	var out []int
	for _, c := range ix.children[ix.spans[i].ID] {
		if ix.spans[c].Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// fmtTime renders a virtual time as seconds.
func fmtTime(s *Span) string { return fmt.Sprintf("t=%.3fs", s.Start.Seconds()) }

// ExplainVM renders vm's full recorded lifecycle: every span touching it,
// indented by causality.
func (ix *SpanIndex) ExplainVM(vm string) (string, error) {
	idx := ix.byVM[vm]
	if len(idx) == 0 {
		return "", fmt.Errorf("no spans recorded for VM %q (known: %s)", vm, strings.Join(ix.VMs(), ", "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline of %s (%d spans):\n", vm, len(idx))
	for _, i := range idx {
		s := &ix.spans[i]
		fmt.Fprintf(&b, "  %s  %-10s %s", fmtTime(s), s.Kind, s.Name)
		if s.Host != "" {
			fmt.Fprintf(&b, " [%s]", s.Host)
		}
		if s.hasScore {
			fmt.Fprintf(&b, " score=%.2f", s.Score)
		}
		if s.hasCost {
			fmt.Fprintf(&b, " cost=%.3fms", float64(s.Cost.Micros())/1000)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " — %s", s.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// lastPlace returns the index of vm's last successful place span (one with
// a host), or the last place span of any outcome if none succeeded, or -1.
func (ix *SpanIndex) lastPlace(vm string) int {
	places := ix.vmSpans(vm, SpanPlace)
	for i := len(places) - 1; i >= 0; i-- {
		if ix.spans[places[i]].Host != "" {
			return places[i]
		}
	}
	if len(places) > 0 {
		return places[len(places)-1]
	}
	return -1
}

// renderDecision renders one place span with its filter, score, and
// candidate sub-spans — the full per-plugin breakdown the decision used.
func (ix *SpanIndex) renderDecision(b *strings.Builder, i int) {
	s := &ix.spans[i]
	fmt.Fprintf(b, "%s decision %s", fmtTime(s), s.Name)
	if s.Host != "" {
		fmt.Fprintf(b, " → %s", s.Host)
	} else {
		b.WriteString(" → no host fits")
	}
	if s.hasScore {
		fmt.Fprintf(b, " (total %.2f)", s.Score)
	}
	if s.Detail != "" {
		fmt.Fprintf(b, "\n  %s", s.Detail)
	}
	b.WriteByte('\n')
	if filters := ix.childrenOf(i, SpanFilter); len(filters) > 0 {
		b.WriteString("  filters:\n")
		for _, f := range filters {
			fs := &ix.spans[f]
			fmt.Fprintf(b, "    %-12s %s\n", fs.Name, fs.Detail)
		}
	}
	if scores := ix.childrenOf(i, SpanScore); len(scores) > 0 {
		fmt.Fprintf(b, "  scores for %s:\n", s.Host)
		for _, sc := range scores {
			ss := &ix.spans[sc]
			fmt.Fprintf(b, "    %-12s %+8.2f  %s\n", ss.Name, ss.Score, ss.Detail)
		}
	}
	if cands := ix.childrenOf(i, SpanCandidate); len(cands) > 0 {
		b.WriteString("  candidates:\n")
		for _, c := range cands {
			cs := &ix.spans[c]
			fmt.Fprintf(b, "    %-8s total %8.2f  %s\n", cs.Host, cs.Score, cs.Detail)
		}
	}
}

// ExplainWhy answers "why did vm land on its host": the last successful
// placement decision with its complete per-plugin breakdown.
func (ix *SpanIndex) ExplainWhy(vm string) (string, error) {
	i := ix.lastPlace(vm)
	if i < 0 {
		return "", fmt.Errorf("no placement decision recorded for VM %q", vm)
	}
	var b strings.Builder
	ix.renderDecision(&b, i)
	return b.String(), nil
}

// ExplainWhyNot answers "why did vm not land on host": a veto reason if a
// filter excluded it, its score gap if it lost the scoring round, or the
// fact that it scored below the recorded top candidates.
func (ix *SpanIndex) ExplainWhyNot(vm, host string) (string, error) {
	i := ix.lastPlace(vm)
	if i < 0 {
		return "", fmt.Errorf("no placement decision recorded for VM %q", vm)
	}
	s := &ix.spans[i]
	if s.Host == host {
		return fmt.Sprintf("%s WAS placed on %s — ask `why %s` for the breakdown\n", vm, host, vm), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s decision %s → %s; why not %s:\n", fmtTime(s), s.Name, s.Host, host)
	needle := host + ":"
	for _, f := range ix.childrenOf(i, SpanFilter) {
		fs := &ix.spans[f]
		if k := strings.Index(fs.Detail, needle); k >= 0 {
			reason := fs.Detail[k+len(needle):]
			if e := strings.IndexByte(reason, ';'); e >= 0 {
				reason = reason[:e]
			}
			fmt.Fprintf(&b, "  vetoed by %s:%s\n", fs.Name, reason)
			return b.String(), nil
		}
	}
	for _, c := range ix.childrenOf(i, SpanCandidate) {
		cs := &ix.spans[c]
		if cs.Host == host {
			fmt.Fprintf(&b, "  %s passed every filter but scored %.2f vs winner %.2f: %s\n",
				host, cs.Score, s.Score, cs.Detail)
			return b.String(), nil
		}
	}
	fmt.Fprintf(&b, "  %s passed every filter but scored below the recorded top candidates (winner %.2f)\n",
		host, s.Score)
	return b.String(), nil
}

// ExplainRejected answers "why was vm rejected": the terminal reject span
// plus the veto breakdown of every failed placement attempt.
func (ix *SpanIndex) ExplainRejected(vm string) (string, error) {
	rejects := ix.vmSpans(vm, SpanReject)
	places := ix.vmSpans(vm, SpanPlace)
	retries := ix.vmSpans(vm, SpanRetry)
	if len(rejects) == 0 && len(places) == 0 {
		return "", fmt.Errorf("no admission spans recorded for VM %q", vm)
	}
	var b strings.Builder
	if len(rejects) == 0 {
		fmt.Fprintf(&b, "%s was never rejected (%d placement attempts, %d retries)\n",
			vm, len(places), len(retries))
	} else {
		rs := &ix.spans[rejects[len(rejects)-1]]
		fmt.Fprintf(&b, "%s rejected at %s — %s\n", vm, fmtTime(rs), rs.Detail)
	}
	for _, i := range places {
		if ix.spans[i].Host == "" {
			ix.renderDecision(&b, i)
		}
	}
	return b.String(), nil
}

// ExplainPreempted answers "who preempted vm": every preempt span naming
// it as the victim, with the beneficiary and outcome.
func (ix *SpanIndex) ExplainPreempted(vm string) (string, error) {
	pre := ix.vmSpans(vm, SpanPreempt)
	if len(pre) == 0 {
		if len(ix.byVM[vm]) == 0 {
			return "", fmt.Errorf("no spans recorded for VM %q", vm)
		}
		return fmt.Sprintf("%s was never preempted\n", vm), nil
	}
	var b strings.Builder
	for _, i := range pre {
		s := &ix.spans[i]
		fmt.Fprintf(&b, "%s %s preempted off %s — %s", fmtTime(s), vm, s.Host, s.Detail)
		if s.hasCost {
			fmt.Fprintf(&b, " (migration cost %.3fms)", float64(s.Cost.Micros())/1000)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Explain answers one per-VM provenance query: "why" (ExplainWhy),
// "why-not" (ExplainWhyNot; needs host), "rejected", "preempted" or
// "timeline" (ExplainVM). A bad query wraps ErrExplainQuery; a VM the
// spans hold no answer for is a plain error.
func (ix *SpanIndex) Explain(query, vm, host string) (string, error) {
	switch query {
	case "why":
		return ix.ExplainWhy(vm)
	case "why-not":
		if host == "" {
			return "", errNoHost
		}
		return ix.ExplainWhyNot(vm, host)
	case "rejected":
		return ix.ExplainRejected(vm)
	case "preempted":
		return ix.ExplainPreempted(vm)
	case "timeline":
		return ix.ExplainVM(vm)
	default:
		return "", errUnknownQuery
	}
}

// Summary renders a one-screen overview of the span file: span counts by
// kind and the VM list.
func (ix *SpanIndex) Summary() string {
	counts := map[SpanKind]int{}
	for i := range ix.spans {
		counts[ix.spans[i].Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "%d spans", len(ix.spans))
	if len(ix.spans) == 0 {
		b.WriteString(" (empty trace)\n")
		return b.String()
	}
	b.WriteString(":\n")
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d\n", k, counts[SpanKind(k)])
	}
	if vms := ix.VMs(); len(vms) > 0 {
		fmt.Fprintf(&b, "vms: %s\n", strings.Join(vms, " "))
	}
	return b.String()
}
