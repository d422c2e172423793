package xen

import "fmt"

// DestroyDomain tears a domain down: running VCPUs are preempted
// mid-quantum (partial work accounted), queued ones are removed from their
// run queues, pending wakeups are discarded, and the VCPUs stop
// permanently. The schedulers simply see the VCPUs disappear — a teardown
// mid-sampling-period must not confuse the analyzer. The domain's machine
// memory returns to the free pools, and watch conditions treat a
// destroyed domain as complete.
func (h *Hypervisor) DestroyDomain(d *Domain) error {
	if d.Destroyed {
		return fmt.Errorf("xen: domain %q already destroyed", d.Name)
	}
	h.runGen++
	for _, v := range d.VCPUs {
		if v.App == nil || v.Done {
			continue
		}
		if v.State == StateRunning {
			// preempt requeues it (or it blocks or finishes); the
			// check below pulls it back off the queue.
			h.preempt(h.PCPUs[v.OnPCPU])
		}
		if v.State == StateRunnable {
			h.PCPUs[v.OnPCPU].Remove(v)
		}
		v.wakeTimer.Stop()
		v.State = StateBlocked
	}
	d.Destroyed = true
	h.retirePending = true
	h.Alloc.Release(d.MemDist, d.MemoryMB)
	h.checkWatch()
	return nil
}
