package xen

import (
	"strconv"

	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

// The two per-quantum event kinds, dispatch and block, travel as typed
// fields (CPU, VCPU, App, Arg) with an empty Detail: a traced quantum
// builds no string. AppendDetail renders their line with strconv appends,
// byte-identical to the fmt formats named on each emitter, when a sink or
// a reader asks for it. The emitters are small enough to inline, so they
// are kept out of line by hand, behind the callers' EventFn guards: the
// untraced quantum path does not grow.

// emitDispatch sends v's quantum of length used on p, whose line is
// "pcpu%d run vcpu%d (%s) %.1fms".
//
//go:noinline
func (h *Hypervisor) emitDispatch(p *PCPU, v *VCPU, used sim.Duration) {
	h.send(EventDispatch, v.ID, p.ID, p.Node, v.App.Name, used, "")
}

// emitBlock sends v blocking on p for wait, whose line is
// "vcpu%d (%s) blocks %v".
//
//go:noinline
func (h *Hypervisor) emitBlock(p *PCPU, v *VCPU, wait sim.Duration) {
	h.send(EventBlock, v.ID, p.ID, p.Node, v.App.Name, wait, "")
}

// AppendDetail appends the event's trace line to b and returns the
// extended slice: Detail when it is set, otherwise the dispatch or block
// line built from the typed fields.
func (ev Event) AppendDetail(b []byte) []byte {
	if ev.Detail != "" {
		return append(b, ev.Detail...)
	}
	//vet:partial every other kind carries its line in Detail, appended above
	switch ev.Kind {
	case EventDispatch:
		b = append(b, "pcpu"...)
		b = strconv.AppendInt(b, int64(ev.CPU), 10)
		b = append(b, " run vcpu"...)
		b = strconv.AppendInt(b, int64(ev.VCPU), 10)
		b = append(b, " ("...)
		b = append(b, ev.App...)
		b = append(b, ") "...)
		b = appendMillis1(b, ev.Arg)
		return append(b, "ms"...)
	case EventBlock:
		b = append(b, "vcpu"...)
		b = strconv.AppendInt(b, int64(ev.VCPU), 10)
		b = append(b, " ("...)
		b = append(b, ev.App...)
		b = append(b, ") blocks "...)
		return appendDuration(b, ev.Arg)
	}
	return b
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
	return append(b, '.', byte('0'+tenths%10))
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
		return append(b, 's')
	case d >= sim.Millisecond || d <= -sim.Millisecond:
		if d < 0 {
			b = strconv.AppendFloat(b, d.Millis(), 'f', 3, 64)
		} else {
			b = strconv.AppendInt(b, int64(d)/1000, 10)
			b = appendFrac3(b, int64(d)%1000)
		}
		return append(b, "ms"...)
	default:
		b = strconv.AppendInt(b, int64(d), 10)
		return append(b, "µs"...)
	}
}

// appendFrac3 appends "." and n (0 <= n < 1000) as three digits.
func appendFrac3(b []byte, n int64) []byte {
	return append(b, '.', byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
}

// send delivers one event: typed fields plus, for a cold kind, its
// rendered Detail.
func (h *Hypervisor) send(kind EventKind, vcpu VCPUID, cpu numa.CPUID, node numa.NodeID, app string, arg sim.Duration, detail string) {
	h.EventFn(Event{
		At:     h.Engine.Now(),
		Kind:   kind,
		VCPU:   vcpu,
		CPU:    cpu,
		Node:   node,
		App:    app,
		Arg:    arg,
		Detail: detail,
	})
}
