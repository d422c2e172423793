package vprobe

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"vprobe/internal/cluster"
	"vprobe/internal/xen"
)

// EventKind labels a scheduling event.
type EventKind string

// Scheduling event kinds delivered to Config.Events.
const (
	// EventDispatch: a VCPU starts a quantum on a PCPU.
	EventDispatch EventKind = EventKind(xen.EventDispatch)
	// EventAppFinish: an application completed all its work.
	EventAppFinish EventKind = EventKind(xen.EventAppFinish)
	// EventBlock: a VCPU blocked (timer, I/O, barrier, network wait).
	EventBlock EventKind = EventKind(xen.EventBlock)
	// EventGuestMove: the guest OS parked a thread on another VCPU.
	EventGuestMove EventKind = EventKind(xen.EventGuestMove)
	// EventDomPause / EventDomResume / EventDomDestroy: domain lifecycle.
	EventDomPause   EventKind = EventKind(xen.EventDomPause)
	EventDomResume  EventKind = EventKind(xen.EventDomResume)
	EventDomDestroy EventKind = EventKind(xen.EventDomDestroy)
)

// Cluster-scoped event kinds delivered to a RunCluster run's
// CompileOptions.Events. These
// describe VM admission, placement, and inter-host migration rather than
// single-host scheduling; their events carry Host and VM instead of
// VCPU/Node.
const (
	// EventVMArrive: a VM entered the admission queue.
	EventVMArrive EventKind = EventKind(cluster.EventVMArrive)
	// EventVMPlace: a VM was admitted onto a host (including a killed
	// preemption victim admitted again; migrations emit
	// EventMigrateStart/EventMigrateDone instead).
	EventVMPlace EventKind = EventKind(cluster.EventVMPlace)
	// EventVMRetry: placement failed; the VM re-queued with backoff.
	EventVMRetry EventKind = EventKind(cluster.EventVMRetry)
	// EventVMReject: the VM exhausted its retries and was rejected.
	EventVMReject EventKind = EventKind(cluster.EventVMReject)
	// EventVMDepart: a VM reached the end of its lifetime.
	EventVMDepart EventKind = EventKind(cluster.EventVMDepart)
	// EventMigrateStart / EventMigrateDone: inter-host live migration.
	EventMigrateStart EventKind = EventKind(cluster.EventMigrateStart)
	EventMigrateDone  EventKind = EventKind(cluster.EventMigrateDone)
	// EventVMPreempted: a lower-priority VM was evicted (migrated or
	// killed and requeued) to admit a higher-priority arrival.
	EventVMPreempted EventKind = EventKind(cluster.EventVMPreempted)
	// EventGangAdmitted: a VM group was placed all-or-nothing.
	EventGangAdmitted EventKind = EventKind(cluster.EventGangAdmitted)
	// EventBackfill: a small VM jumped the admission queue into a hole
	// that could not delay the blocked head.
	EventBackfill EventKind = EventKind(cluster.EventBackfill)
	// EventDeschedule: the defragmentation pass drained a VM off an
	// underloaded host.
	EventDeschedule EventKind = EventKind(cluster.EventDeschedule)
)

// Event is one structured scheduling trace record. The typed fields carry
// machine-readable identities; Detail is the human-readable rendering.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind labels what happened.
	Kind EventKind
	// VCPU is the machine-wide VCPU id, -1 when the event is not
	// VCPU-scoped (e.g. domain lifecycle).
	VCPU int
	// Node is the NUMA node involved, -1 when placement is not part of
	// the event.
	Node int
	// App names the workload on the subject VCPU, when it has one.
	App string
	// Host names the cluster host involved; empty for single-host
	// scheduling events.
	Host string
	// VM names the cluster VM involved; empty for single-host scheduling
	// events.
	VM string
	// Detail is the formatted trace line.
	Detail string
}

// String renders the event as a trace line.
func (ev Event) String() string { return ev.Detail }

// AppendJSON appends the event's JSON Lines record, without the newline,
// to b and returns the extended slice. The record is the one vprobe-trace
// -json and vprobe-serve's event stream emit: virtual time in seconds as
// "t", then "kind", "vcpu", "node", whichever of "app", "host" and "vm"
// are non-empty, and "detail". The bytes equal what encoding/json would
// marshal for those fields, HTML escaping and number format included.
func (ev Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, ev.At.Seconds())
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, string(ev.Kind))
	b = append(b, `,"vcpu":`...)
	b = strconv.AppendInt(b, int64(ev.VCPU), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(ev.Node), 10)
	for _, f := range [...]struct{ key, val string }{
		{`,"app":`, ev.App}, {`,"host":`, ev.Host}, {`,"vm":`, ev.VM},
	} {
		if f.val != "" {
			b = append(b, f.key...)
			b = appendJSONString(b, f.val)
		}
	}
	b = append(b, `,"detail":`...)
	b = appendJSONString(b, ev.Detail)
	return append(b, '}')
}

// appendJSONFloat formats f as encoding/json does: the shortest
// representation, in exponent form only below 1e-6 or from 1e21 up, with
// a single-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s as encoding/json does: control bytes, quotes,
// backslashes and the HTML-sensitive <, > and & are escaped, invalid UTF-8
// becomes U+FFFD, and U+2028/U+2029 are escaped for JavaScript.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// EventSink consumes scheduling events during a run.
type EventSink interface {
	HandleEvent(Event)
}

// EventFunc adapts a function to EventSink.
type EventFunc func(Event)

// HandleEvent calls f.
func (f EventFunc) HandleEvent(ev Event) { f(ev) }

// eventHook builds the xen-level event hook delivering to sink (nil when
// tracing is off, so the hypervisor skips formatting entirely).
func eventHook(sink EventSink) func(xen.Event) {
	if sink == nil {
		return nil
	}
	return func(xe xen.Event) {
		sink.HandleEvent(Event{
			At:     time.Duration(xe.At) * time.Microsecond,
			Kind:   EventKind(xe.Kind),
			VCPU:   int(xe.VCPU),
			Node:   int(xe.Node),
			App:    xe.App,
			Detail: xe.Detail,
		})
	}
}
