package vprobe

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"vprobe/internal/cluster"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
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
	return appendEventJSON(b, ev.At, string(ev.Kind), ev.VCPU, ev.Node, ev.App, ev.Host, ev.VM, ev.Detail)
}

// appendEventJSON is the one JSON Lines record renderer, behind both
// Event.AppendJSON and EventLog.AppendJSONL.
func appendEventJSON[D string | []byte](b []byte, at time.Duration, kind string, vcpu, node int, app, host, vm string, detail D) []byte {
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, at.Seconds())
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, kind)
	b = append(b, `,"vcpu":`...)
	b = strconv.AppendInt(b, int64(vcpu), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	for _, f := range [...]struct{ key, val string }{
		{`,"app":`, app}, {`,"host":`, host}, {`,"vm":`, vm},
	} {
		if f.val != "" {
			b = append(b, f.key...)
			b = appendJSONString(b, f.val)
		}
	}
	b = append(b, `,"detail":`...)
	b = appendJSONString(b, detail)
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
func appendJSONString[S string | []byte](b []byte, s S) []byte {
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
		// At most UTFMax bytes: converting a []byte that short does not
		// allocate.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
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

// EventLog records a run's events in a compact form and renders them as
// JSON Lines only when they are read. Its records are fixed-size and hold
// no pointers, so a log the garbage collector keeps alive costs it no
// scanning: names, kinds and the text Details of the cold kinds are
// indexes into one per-log string table. A dispatch or block line is not
// stored at all; AppendJSONL builds it from the record's typed fields.
//
// EventLog is an EventSink. As a Simulator's (or CompileScenario's)
// Events it takes the hypervisor's typed events directly, so a run
// builds no Event per event; as RunCluster's it records the cluster
// events. The zero value is an empty log ready for use. One goroutine
// appends while any number read: Len, AppendJSONL and Grown are safe to
// call during the run.
type EventLog struct {
	mu    sync.Mutex
	recs  []logRecord
	strs  []string         // the string table; ref i > 0 is strs[i-1]
	names map[string]int32 // interned kinds and names, by ref
	grown chan struct{}    // closed by the next append; nil while nobody waits
}

// logRecord is one event of an EventLog. The string fields are refs into
// the log's string table (0 is the empty string).
type logRecord struct {
	at   time.Duration
	arg  sim.Duration // xen.Event.Arg of a typed dispatch or block
	vcpu int
	node int
	cpu  int32
	kind int32
	app  int32
	host int32
	vm   int32
	// detail is the ref of the Detail text, or typedDetail when the line
	// is built from the typed fields by xen.Event.AppendDetail.
	detail int32
}

// typedDetail marks a record whose Detail xen.Event.AppendDetail renders.
const typedDetail = -1

// closedChan is what Grown returns when the log has already grown.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// HandleEvent records ev.
func (l *EventLog) HandleEvent(ev Event) {
	l.mu.Lock()
	l.push(logRecord{
		at:     ev.At,
		vcpu:   ev.VCPU,
		node:   ev.Node,
		kind:   l.intern(string(ev.Kind)),
		app:    l.intern(ev.App),
		host:   l.intern(ev.Host),
		vm:     l.intern(ev.VM),
		detail: l.add(ev.Detail),
	})
	l.mu.Unlock()
}

// handleXen records one hypervisor event as it comes: a dispatch or
// block keeps its typed fields instead of a line.
func (l *EventLog) handleXen(ev xen.Event) {
	l.mu.Lock()
	r := logRecord{
		at:     time.Duration(ev.At) * time.Microsecond,
		arg:    ev.Arg,
		vcpu:   int(ev.VCPU),
		node:   int(ev.Node),
		cpu:    int32(ev.CPU),
		kind:   l.intern(string(ev.Kind)),
		app:    l.intern(ev.App),
		detail: typedDetail,
	}
	if ev.Detail != "" {
		r.detail = l.add(ev.Detail)
	}
	l.push(r)
	l.mu.Unlock()
}

// push appends r and wakes a waiting reader. l.mu is held.
func (l *EventLog) push(r logRecord) {
	l.recs = append(l.recs, r)
	if l.grown != nil {
		close(l.grown)
		l.grown = nil
	}
}

// intern returns the ref of s, adding it to the string table once.
// l.mu is held.
func (l *EventLog) intern(s string) int32 {
	if s == "" {
		return 0
	}
	if ref, ok := l.names[s]; ok {
		return ref
	}
	if l.names == nil {
		l.names = make(map[string]int32)
	}
	ref := l.add(s)
	l.names[s] = ref
	return ref
}

// add appends s to the string table and returns its ref. l.mu is held.
func (l *EventLog) add(s string) int32 {
	if s == "" {
		return 0
	}
	l.strs = append(l.strs, s)
	return int32(len(l.strs))
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Grown returns a channel that is closed once the log holds more than n
// events, so a reader can wait for the next append alongside other
// signals.
func (l *EventLog) Grown(n int) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) > n {
		return closedChan
	}
	if l.grown == nil {
		l.grown = make(chan struct{})
	}
	return l.grown
}

// AppendJSONL appends the JSON Lines records of events [from, to), each
// followed by a newline, to b and returns the extended slice. Each record
// is byte-identical to Event.AppendJSON of the event the log was given
// (or the Event a Simulator would have delivered to any other sink). It
// requires 0 <= from <= to <= Len().
func (l *EventLog) AppendJSONL(b []byte, from, to int) []byte {
	// Records and table entries never change once appended, so a reader
	// renders outside the lock from a snapshot of both slices.
	l.mu.Lock()
	recs, strs := l.recs, l.strs
	l.mu.Unlock()
	recs = recs[from:to]
	str := func(ref int32) string {
		if ref == 0 {
			return ""
		}
		return strs[ref-1]
	}
	var scratch [128]byte // a typed line fits; a longer one moves to the heap
	line := scratch[:0]
	for i := range recs {
		r := &recs[i]
		kind, app, host, vm := str(r.kind), str(r.app), str(r.host), str(r.vm)
		if r.detail == typedDetail {
			line = xen.Event{
				Kind: xen.EventKind(kind),
				VCPU: xen.VCPUID(r.vcpu),
				CPU:  numa.CPUID(r.cpu),
				App:  app,
				Arg:  r.arg,
			}.AppendDetail(line[:0])
			b = appendEventJSON(b, r.at, kind, r.vcpu, r.node, app, host, vm, line)
		} else {
			b = appendEventJSON(b, r.at, kind, r.vcpu, r.node, app, host, vm, str(r.detail))
		}
		b = append(b, '\n')
	}
	return b
}

// eventHook builds the xen-level event hook delivering to sink (nil when
// tracing is off, so the hypervisor skips emission entirely). An
// *EventLog takes the typed events as they are; any other sink receives
// Events whose Detail is rendered here.
func eventHook(sink EventSink) func(xen.Event) {
	if sink == nil {
		return nil
	}
	if l, ok := sink.(*EventLog); ok {
		return l.handleXen
	}
	var line []byte
	return func(xe xen.Event) {
		detail := xe.Detail
		if detail == "" {
			line = xe.AppendDetail(line[:0])
			detail = string(line)
		}
		sink.HandleEvent(Event{
			At:     time.Duration(xe.At) * time.Microsecond,
			Kind:   EventKind(xe.Kind),
			VCPU:   int(xe.VCPU),
			Node:   int(xe.Node),
			App:    xe.App,
			Detail: detail,
		})
	}
}
