package xen

import (
	"fmt"

	"vprobe/internal/numa"
)

// PauseDomain stops all of a domain's VCPUs: running ones are preempted
// mid-quantum (partial work accounted), queued ones are removed from their
// run queues, and pending wakeups are discarded. The schedulers simply see
// the VCPUs disappear — pausing mid-sampling-period must not confuse the
// analyzer (a paused VCPU's next window is just short).
func (h *Hypervisor) PauseDomain(d *Domain) error {
	if d.Paused {
		return fmt.Errorf("xen: domain %q already paused", d.Name)
	}
	d.Paused = true
	for _, v := range d.VCPUs {
		if v.App == nil || v.Done {
			continue
		}
		switch v.State {
		case StateRunning:
			h.preempt(h.PCPUs[v.OnPCPU])
			// preempt requeued it (or it blocked/finished); fall
			// through to pull it back off the queue.
		}
		if v.State == StateRunnable {
			h.PCPUs[v.OnPCPU].Remove(v)
		}
		if v.wakeTimer != nil {
			v.wakeTimer.Stop()
		}
		v.State = StateBlocked
		v.paused = true
	}
	h.Spans.domainPoint(d, "pause", "all vcpus stopped")
	h.emit(EventDomPause, -1, -1, numa.NoNode, "", "domain %s paused", d.Name)
	return nil
}

// ResumeDomain re-enqueues a paused domain's VCPUs on the least-loaded
// PCPUs and kicks idle PCPUs to pick them up.
func (h *Hypervisor) ResumeDomain(d *Domain) error {
	if !d.Paused {
		return fmt.Errorf("xen: domain %q is not paused", d.Name)
	}
	if d.Destroyed {
		return fmt.Errorf("xen: domain %q is destroyed", d.Name)
	}
	d.Paused = false
	for _, v := range d.VCPUs {
		if v.App == nil || v.Done || !v.paused {
			continue
		}
		v.paused = false
		target := h.leastLoadedAnywhere()
		if v.PinnedPCPU >= 0 {
			target = h.PCPUs[v.PinnedPCPU]
		}
		v.Priority = priorityFromCredits(v)
		h.enqueue(target, v)
	}
	h.kickIdle()
	h.Spans.domainPoint(d, "resume", "vcpus re-enqueued")
	h.emit(EventDomResume, -1, -1, numa.NoNode, "", "domain %s resumed", d.Name)
	return nil
}

// DestroyDomain tears a domain down: VCPUs stop permanently and its
// machine memory returns to the free pools. Watch conditions treat a
// destroyed domain as complete.
func (h *Hypervisor) DestroyDomain(d *Domain) error {
	if d.Destroyed {
		return fmt.Errorf("xen: domain %q already destroyed", d.Name)
	}
	if !d.Paused {
		if err := h.PauseDomain(d); err != nil {
			return err
		}
	}
	d.Destroyed = true
	h.Alloc.Release(d.MemDist, d.MemoryMB)
	h.Spans.domainDestroyed(d)
	h.emit(EventDomDestroy, -1, -1, numa.NoNode, "", "domain %s destroyed", d.Name)
	h.checkWatch()
	return nil
}

// leastLoadedAnywhere returns the machine's least-loaded PCPU.
func (h *Hypervisor) leastLoadedAnywhere() *PCPU {
	best := h.PCPUs[0]
	for _, p := range h.PCPUs[1:] {
		if p.Workload < best.Workload {
			best = p
		}
	}
	return best
}
