package xen

import (
	"strconv"

	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

// The two per-quantum event kinds, dispatch and block, build their Detail
// with strconv appends into the hypervisor's scratch buffer instead of
// fmt: one allocation per event (the Detail string), no argument boxing.
// The text is byte-identical to the fmt formats named on each helper. The
// helpers stay out of line, behind the callers' EventFn guards, so the
// untraced quantum path does not grow.

// emitDispatch sends "pcpu%d run vcpu%d (%s) %.1fms" for v's quantum of
// length used on p.
func (h *Hypervisor) emitDispatch(p *PCPU, v *VCPU, used sim.Duration) {
	b := append(h.detail[:0], "pcpu"...) //vet:alloc traced path: the scratch buffer grows to the longest line once
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, " run vcpu"...) //vet:alloc traced path: scratch buffer growth, amortised
	b = strconv.AppendInt(b, int64(v.ID), 10)
	b = append(b, " ("...)       //vet:alloc traced path: scratch buffer growth, amortised
	b = append(b, v.App.Name...) //vet:alloc traced path: scratch buffer growth, amortised
	b = append(b, ") "...)       //vet:alloc traced path: scratch buffer growth, amortised
	b = appendMillis1(b, used)
	b = append(b, "ms"...) //vet:alloc traced path: scratch buffer growth, amortised
	h.detail = b
	//vet:alloc traced path: the Detail string is the event's one allocation
	h.send(EventDispatch, v.ID, p.ID, p.Node, v.App.Name, string(b))
}

// emitBlock sends "vcpu%d (%s) blocks %v" for v blocking on p for wait.
func (h *Hypervisor) emitBlock(p *PCPU, v *VCPU, wait sim.Duration) {
	b := append(h.detail[:0], "vcpu"...) //vet:alloc traced path: the scratch buffer grows to the longest line once
	b = strconv.AppendInt(b, int64(v.ID), 10)
	b = append(b, " ("...)        //vet:alloc traced path: scratch buffer growth, amortised
	b = append(b, v.App.Name...)  //vet:alloc traced path: scratch buffer growth, amortised
	b = append(b, ") blocks "...) //vet:alloc traced path: scratch buffer growth, amortised
	b = appendDuration(b, wait)
	h.detail = b
	//vet:alloc traced path: the Detail string is the event's one allocation
	h.send(EventBlock, v.ID, p.ID, p.Node, v.App.Name, string(b))
}

// exactMicros bounds the integer renderers. Below 2^53 µs a Duration
// converts to float64 exactly and the quotient fmt formats is within one
// rounding of the exact decimal, so only a tie can round differently.
const exactMicros = 1 << 53

// appendMillis1 appends d as fmt's "%.1f" of d.Millis(). A tie (d%100 ==
// 50) is decided by the binary value of d.Millis(), so strconv renders it.
func appendMillis1(b []byte, d sim.Duration) []byte {
	if d < 0 || d >= exactMicros || d%100 == 50 {
		return strconv.AppendFloat(b, d.Millis(), 'f', 1, 64)
	}
	tenths := (int64(d) + 50) / 100
	b = strconv.AppendInt(b, tenths/10, 10)
	return append(b, '.', byte('0'+tenths%10)) //vet:alloc traced path: scratch buffer growth, amortised
}

// appendDuration appends d.String(). Milliseconds are exact; seconds round
// to the millisecond, and a tie (d%1000 == 500) goes to strconv as in
// appendMillis1. Negative durations take the strconv path too.
func appendDuration(b []byte, d sim.Duration) []byte {
	switch {
	case d >= sim.Second || d <= -sim.Second:
		if d < 0 || d >= exactMicros || d%1000 == 500 {
			b = strconv.AppendFloat(b, d.Seconds(), 'f', 3, 64)
		} else {
			ms := (int64(d) + 500) / 1000
			b = strconv.AppendInt(b, ms/1000, 10)
			b = appendFrac3(b, ms%1000)
		}
		return append(b, 's') //vet:alloc traced path: scratch buffer growth, amortised
	case d >= sim.Millisecond || d <= -sim.Millisecond:
		if d < 0 {
			b = strconv.AppendFloat(b, d.Millis(), 'f', 3, 64)
		} else {
			b = strconv.AppendInt(b, int64(d)/1000, 10)
			b = appendFrac3(b, int64(d)%1000)
		}
		return append(b, "ms"...) //vet:alloc traced path: scratch buffer growth, amortised
	default:
		b = strconv.AppendInt(b, int64(d), 10)
		return append(b, "µs"...) //vet:alloc traced path: scratch buffer growth, amortised
	}
}

// appendFrac3 appends "." and n (0 <= n < 1000) as three digits.
func appendFrac3(b []byte, n int64) []byte {
	//vet:alloc traced path: scratch buffer growth, amortised
	return append(b, '.', byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
}

// send delivers one event whose Detail is already rendered.
func (h *Hypervisor) send(kind EventKind, vcpu VCPUID, cpu numa.CPUID, node numa.NodeID, app, detail string) {
	h.EventFn(Event{
		At:     h.Engine.Now(),
		Kind:   kind,
		VCPU:   vcpu,
		CPU:    cpu,
		Node:   node,
		App:    app,
		Detail: detail,
	})
}
