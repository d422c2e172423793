package xen

import (
	"vprobe/internal/core"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

// PCPU is a physical CPU with its own run queue, as in the Credit
// scheduler. Workload is the paper's per-PCPU queue-length counter
// (§IV-B): incremented on insert, decremented on remove.
type PCPU struct {
	ID   numa.CPUID
	Node numa.NodeID

	// queue holds runnable VCPUs in priority order: all UNDER before
	// all OVER, FIFO within a class.
	queue []*VCPU

	Current  *VCPU
	lastVCPU *VCPU // previous occupant, for context-switch detection

	// flight is the in-progress quantum (active when flight.v != nil),
	// kept so a BOOST wakeup can preempt it mid-way and account the
	// truncated work. Embedded by value and reused across quanta.
	flight flight

	// quantum is the reusable end-of-quantum timer, bound to this PCPU's
	// endQuantum at construction so dispatch never allocates a closure.
	quantum *sim.Timer

	// stealScratch is QueueViews' reusable per-PCPU candidate buffer.
	stealScratch []core.RunnableVCPU

	Workload int

	idle      bool
	IdleSince sim.Time
	IdleTime  sim.Duration
	BusyTime  sim.Duration
}

// QueueLen returns the number of waiting (not running) VCPUs.
func (p *PCPU) QueueLen() int { return len(p.queue) }

// Queue returns the waiting VCPUs in queue order (shared slice; callers
// must not mutate).
func (p *PCPU) Queue() []*VCPU { return p.queue }

// Enqueue inserts v into the run queue according to its priority (BOOST
// before UNDER before OVER, FIFO within a class).
func (p *PCPU) Enqueue(v *VCPU) {
	v.State = StateRunnable
	v.OnPCPU = p.ID
	pos := len(p.queue)
	for i, q := range p.queue {
		if q.Priority > v.Priority {
			pos = i
			break
		}
	}
	p.queue = append(p.queue, nil) //vet:alloc queue grows to resident VCPU count during warmup, then slots are reused
	// Shift with a loop, not copy: run queues hold a few VCPUs, and copy
	// of a pointer slice goes through the runtime's typedslicecopy.
	for i := len(p.queue) - 1; i > pos; i-- {
		p.queue[i] = p.queue[i-1]
	}
	p.queue[pos] = v
	p.Workload++
}

// PeekHead returns the queue head without removing it, or nil.
func (p *PCPU) PeekHead() *VCPU {
	if len(p.queue) == 0 {
		return nil
	}
	return p.queue[0]
}

// Dequeue removes and returns the queue head, or nil.
func (p *PCPU) Dequeue() *VCPU {
	if len(p.queue) == 0 {
		return nil
	}
	v := p.queue[0]
	p.shiftOut(0)
	return v
}

// shiftOut removes the queue entry at i, shifting the rest down with a
// loop (see Enqueue).
func (p *PCPU) shiftOut(i int) {
	q := p.queue
	n := len(q) - 1
	for ; i < n; i++ {
		q[i] = q[i+1]
	}
	q[n] = nil
	p.queue = q[:n]
	p.Workload--
}

// Remove extracts a specific VCPU from the queue; it returns false if the
// VCPU is not queued here.
func (p *PCPU) Remove(v *VCPU) bool {
	for i, q := range p.queue {
		if q == v {
			p.shiftOut(i)
			return true
		}
	}
	return false
}

// Stealable returns the queued VCPUs another PCPU may take: everything
// runnable and not pinned. It allocates a fresh slice per call, so the
// steal hot paths iterate the queue with CanSteal instead; this
// form remains for tests and external inspection.
func (p *PCPU) Stealable() []*VCPU {
	var out []*VCPU
	for _, v := range p.queue {
		if v.CanSteal() {
			out = append(out, v)
		}
	}
	return out
}

// CanSteal reports whether another PCPU may take this queued VCPU
// (i.e. it is not hard-pinned).
func (v *VCPU) CanSteal() bool { return v.PinnedPCPU < 0 }
