// Span recording for single-host runs: a root run span and one span per
// domain under it, all opened when the tracer is attached. A single-host
// run builds its domains before attach and never adds or destroys one
// after, so xen itself holds no span hooks: the caller closes every
// still-open span at the end of the run (Tracer.CloseOpen). The cluster
// layer records its own spans on the cluster engine goroutine and
// attaches no tracer to its hosts.
package xen

import (
	"fmt"

	"vprobe/internal/telemetry"
)

// AttachSpans opens the root run span on t and, under it, one span per
// domain of h at the current time. The spans carry no host, so they land
// on the main thread of the Chrome export.
func AttachSpans(h *Hypervisor, t *telemetry.Tracer) {
	now := h.Engine.Now()
	run := t.Begin(now, telemetry.NoSpan, telemetry.SpanRun, "", "",
		fmt.Sprintf("xen: %s, %s", h.Top.Name(), h.Policy.Name()))
	for _, d := range h.Domains {
		ref := t.Begin(now, run, telemetry.SpanDomain, "", d.Name, fmt.Sprintf("domain %s", d.Name))
		t.SetDetail(ref, fmt.Sprintf("%d MB, %d vcpus", d.MemoryMB, len(d.VCPUs)))
	}
}
