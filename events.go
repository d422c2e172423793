package vprobe

import (
	"encoding/binary"
	"math"
	"sort"
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

// Scheduling event kinds delivered to CompileOptions.Events.
const (
	// EventDispatch: a VCPU starts a quantum on a PCPU.
	EventDispatch EventKind = EventKind(xen.EventDispatch)
	// EventAppFinish: an application completed all its work.
	EventAppFinish EventKind = EventKind(xen.EventAppFinish)
	// EventBlock: a VCPU blocked (timer, I/O, barrier, network wait).
	EventBlock EventKind = EventKind(xen.EventBlock)
	// EventGuestMove: the guest OS parked a thread on another VCPU.
	EventGuestMove EventKind = EventKind(xen.EventGuestMove)
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
	// VCPU-scoped (e.g. cluster events).
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
// to b and returns the extended slice. The record is the one every event
// export writes (the -events file of vprobe-sim -spec and vprobe-cluster,
// vprobe-serve's event stream): virtual time in seconds as "t", then
// "kind", "vcpu", "node", whichever of "app", "host" and "vm" are
// non-empty, and "detail". The bytes equal what encoding/json would
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
// JSON Lines only when they are read. Each event is one varint record,
// about 10 bytes for a dispatch or block, appended to byte chunks that
// never move and hold no pointers, so a log the garbage collector keeps
// alive costs it no scanning. Kinds, names and the text Details of the
// cold kinds are refs into one per-log string table. A dispatch or block
// line is not stored at all; AppendJSONL builds it from the record's
// typed fields. A varint holds any int64, so every event renders exactly.
//
// EventLog is an EventSink. As a compiled Simulator's
// Events it takes the hypervisor's typed events directly, so a run
// builds no Event per event; as RunCluster's it records the cluster
// events. When that run returns, done or not, the log is sealed: its last
// chunk and string table shrink to exact-length copies and its intern map
// goes, so a stored log costs only its records. A later append still
// works. The
// zero value is an empty log ready for use. One goroutine appends while
// any number read: Len, AppendJSONL and Grown are safe to call during
// the run.
type EventLog struct {
	mu sync.Mutex
	// chunks holds the records; n counts them. The last chunk holds used
	// bytes of records and is cut to them by the seal; an earlier chunk
	// may end in a few bytes that the next record did not fit.
	chunks []logChunk
	n      int
	used   int
	at     time.Duration // the last record's time, the next delta's base
	strs   []string      // the string table; ref i > 0 is strs[i-1]
	// names interns kinds and names by ref. The seal drops it; a later
	// append rebuilds it as it goes.
	names map[string]int32
	grown chan struct{} // closed by the next append; nil while nobody waits
}

// logChunk holds whole records, in order. Its buf is allocated at full
// length and never re-sliced, so a reader's snapshot of the chunk list
// stays valid while the writer fills the rest of the last chunk.
//
// A record is these varints, in order:
//
//	kind ref<<1 | ns   (ns is 1 when the delta is in ns, 0 in whole µs)
//	time delta         from the previous record, zigzag
//	detail ref + 1     0 for a typed dispatch or block line
//	vcpu, node         zigzag
//	app ref
//	cpu, arg           zigzag, a typed record only
//	host ref, vm ref   a text record only
//
// A text record keeps no cpu or arg: only a typed line renders them.
type logChunk struct {
	first int           // the index of the chunk's first record
	at    time.Duration // the time its first record's delta counts from
	buf   []byte
}

const (
	// logChunkMin is the size in bytes of an EventLog's first chunk; each
	// next chunk is twice the size of the one before, up to
	// logChunkMin<<logChunkDoublings. A chunk never moves, so a growing
	// log copies no records and leaves no garbage behind, and a seek
	// decodes at most one chunk.
	logChunkMin       = 256
	logChunkDoublings = 8
	// maxRecord bounds one record's encoding: eight varints.
	maxRecord = 8 * binary.MaxVarintLen64
	// typedDetail marks a record whose Detail xen.Event.AppendDetail
	// renders.
	typedDetail = -1
)

// closedChan is what Grown returns when the log has already grown.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// HandleEvent records ev.
func (l *EventLog) HandleEvent(ev Event) {
	l.mu.Lock()
	l.push(ev.At, string(ev.Kind), ev.VCPU, 0, ev.Node, 0,
		l.intern(ev.App), l.intern(ev.Host), l.intern(ev.VM), l.add(ev.Detail))
	l.mu.Unlock()
}

// handleXen records one hypervisor event as it comes: a dispatch or
// block keeps its typed fields instead of a line.
func (l *EventLog) handleXen(ev xen.Event) {
	l.mu.Lock()
	detail := int32(typedDetail)
	if ev.Detail != "" {
		detail = l.add(ev.Detail)
	}
	l.push(time.Duration(ev.At)*time.Microsecond, string(ev.Kind), int(ev.VCPU), int(ev.CPU), int(ev.Node), ev.Arg,
		l.intern(ev.App), 0, 0, detail)
	l.mu.Unlock()
}

// push appends one event's record, in a new chunk when the last has no
// room for it, and wakes a waiting reader. l.mu is held.
func (l *EventLog) push(at time.Duration, kind string, vcpu, cpu, node int, arg sim.Duration, app, host, vm, detail int32) {
	// The delta may wrap; the reader's sum wraps back to at.
	delta, ns := at-l.at, uint64(0)
	if delta%time.Microsecond == 0 {
		delta /= time.Microsecond
	} else {
		ns = 1
	}
	var buf [maxRecord]byte
	r := binary.AppendUvarint(buf[:0], uint64(l.intern(kind))<<1|ns)
	r = binary.AppendVarint(r, int64(delta))
	r = binary.AppendUvarint(r, uint64(detail+1))
	r = binary.AppendVarint(r, int64(vcpu))
	r = binary.AppendVarint(r, int64(node))
	r = binary.AppendUvarint(r, uint64(app))
	if detail == typedDetail {
		r = binary.AppendVarint(r, int64(cpu))
		r = binary.AppendVarint(r, int64(arg))
	} else {
		r = binary.AppendUvarint(r, uint64(host))
		r = binary.AppendUvarint(r, uint64(vm))
	}
	if k := len(l.chunks) - 1; k < 0 || l.used+len(r) > len(l.chunks[k].buf) {
		size := logChunkMin << min(len(l.chunks), logChunkDoublings)
		l.chunks = append(l.chunks, logChunk{first: l.n, at: l.at, buf: make([]byte, size)})
		l.used = 0
	}
	l.used += copy(l.chunks[len(l.chunks)-1].buf[l.used:], r)
	l.at = at
	l.n++
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

// seal trims the log of a run that has returned: the last chunk and the
// string table become exact-length copies, and the intern map goes. The
// chunk list is copied too, so no reader's snapshot changes; the next
// append, finding no room, starts a new chunk.
func (l *EventLog) seal() {
	l.mu.Lock()
	chunks := make([]logChunk, len(l.chunks))
	copy(chunks, l.chunks)
	if k := len(chunks) - 1; k >= 0 {
		chunks[k].buf = exactCopy(chunks[k].buf[:l.used])
	}
	l.chunks = chunks
	l.strs = exactCopy(l.strs)
	l.names = nil
	l.mu.Unlock()
}

// exactCopy returns s with no spare capacity, copying it when it has
// some. A reader's earlier snapshot of s stays valid.
func exactCopy[S ~[]E, E any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// sealEvents seals sink when it is an EventLog: its run has returned.
func sealEvents(sink EventSink) {
	if l, ok := sink.(*EventLog); ok {
		l.seal()
	}
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Grown returns a channel that is closed once the log holds more than n
// events, so a reader can wait for the next append alongside other
// signals.
func (l *EventLog) Grown(n int) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n > n {
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
	// renders outside the lock from a snapshot of the slices.
	l.mu.Lock()
	chunks, strs := l.chunks, l.strs
	l.mu.Unlock()
	if from >= to {
		return b
	}
	str := func(ref uint64) string {
		if ref == 0 {
			return ""
		}
		return strs[ref-1]
	}
	// Seek: decode from the start of the chunk holding from.
	c := sort.Search(len(chunks), func(c int) bool { return chunks[c].first > from }) - 1
	r, at := recordReader(chunks[c].buf), chunks[c].at
	var scratch [128]byte // a typed line fits; a longer one moves to the heap
	line := scratch[:0]
	for i := chunks[c].first; i < to; i++ {
		if c+1 < len(chunks) && i == chunks[c+1].first {
			c++
			r = recordReader(chunks[c].buf)
		}
		kindNS, delta := r.uvarint(), time.Duration(r.varint())
		if kindNS&1 == 0 {
			delta *= time.Microsecond
		}
		at += delta
		detail, vcpu, node, app := r.uvarint(), int(r.varint()), int(r.varint()), str(r.uvarint())
		var cpu, arg int64
		var host, vm string
		if detail == 0 {
			cpu, arg = r.varint(), r.varint()
		} else {
			host, vm = str(r.uvarint()), str(r.uvarint())
		}
		if i < from {
			continue
		}
		kind := str(kindNS >> 1)
		if detail == 0 {
			line = xen.Event{
				Kind: xen.EventKind(kind),
				VCPU: xen.VCPUID(vcpu),
				CPU:  numa.CPUID(cpu),
				App:  app,
				Arg:  sim.Duration(arg),
			}.AppendDetail(line[:0])
			b = appendEventJSON(b, at, kind, vcpu, node, app, host, vm, line)
		} else {
			b = appendEventJSON(b, at, kind, vcpu, node, app, host, vm, str(detail-1))
		}
		b = append(b, '\n')
	}
	return b
}

// recordReader decodes a chunk's varints in order.
type recordReader []byte

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return v
}

func (r *recordReader) varint() int64 {
	v, n := binary.Varint(*r)
	*r = (*r)[n:]
	return v
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
