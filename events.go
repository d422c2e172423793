package vprobe

import (
	"math"
	"math/bits"
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
// JSON Lines only when they are read. Its records are 32 bytes each,
// held in blocks that never move, and hold no pointers, so a log the
// garbage collector keeps alive costs it no scanning: kinds index a
// per-log kind table, and names and the text Details of the cold kinds
// are refs into one per-log string table. A dispatch or block line is
// not stored at all; AppendJSONL builds it from the record's typed
// fields. An event whose fields do not fit the compact record (a VCPU
// beyond int32, a CPU beyond int16, a node beyond int8, a 256th distinct
// kind, or an Arg beside a text Detail) keeps them in a full-width side
// record, so every event renders exactly.
//
// EventLog is an EventSink. As a compiled Simulator's
// Events it takes the hypervisor's typed events directly, so a run
// builds no Event per event; as RunCluster's it records the cluster
// events. When that run returns, done or not, the log is sealed: its last
// block and tables shrink to exact-length copies and its intern map
// goes, so a stored log costs only its records. A later append still
// works. The
// zero value is an empty log ready for use. One goroutine appends while
// any number read: Len, AppendJSONL and Grown are safe to call during
// the run.
type EventLog struct {
	mu sync.Mutex
	// blocks holds the records, block k logBlock<<k of them; n counts
	// them. Only the last block has unused slots (none once sealed).
	blocks [][]logRecord
	n      int
	wide   []wideRecord // the fields of the events that overflow a logRecord
	kinds  []int32      // the kind table: string refs, by kind index
	strs   []string     // the string table; ref i > 0 is strs[i-1]
	// names interns kinds and names by ref, and kindOf[ref] is 1 + the
	// kind index of ref (0 when ref is not a kind yet). The seal drops
	// both; a later append rebuilds them as it goes.
	names  map[string]int32
	kindOf []uint8
	grown  chan struct{} // closed by the next append; nil while nobody waits
}

// logRecord is one event of an EventLog. The string refs index the log's
// string table (0 is the empty string).
type logRecord struct {
	at int64 // time.Duration
	// arg is the xen.Event.Arg of a typed record. A text record, which
	// has none, packs its host and VM refs here (host<<32 | vm). An
	// overflowed record holds its index into the log's wide table.
	arg  int64
	vcpu int32
	app  int32
	// detail is the ref of the Detail text, or typedDetail when the line
	// is built from the typed fields by xen.Event.AppendDetail.
	detail int32
	cpu    int16
	node   int8
	kind   uint8 // an index into the kind table, or wideKind
}

// wideRecord holds the full-width fields of an event that overflowed its
// logRecord, which keeps only its time, app and detail.
type wideRecord struct {
	arg             sim.Duration
	vcpu, cpu, node int
	kind, host, vm  int32
}

const (
	// logBlock is how many records an EventLog's first block holds;
	// each next block holds twice as many. A block never moves, so a
	// growing log allocates O(log n) times, as a doubling slice would,
	// but copies no records and leaves no garbage behind; blockOf finds
	// any record in O(1).
	logBlock = 64
	// typedDetail marks a record whose Detail xen.Event.AppendDetail
	// renders.
	typedDetail = -1
	// wideKind marks a record whose fields live in the wide table; the
	// kind table holds at most wideKind kinds.
	wideKind = math.MaxUint8
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

// push appends one event and wakes a waiting reader. l.mu is held.
func (l *EventLog) push(at time.Duration, kind string, vcpu, cpu, node int, arg sim.Duration, app, host, vm, detail int32) {
	r := logRecord{at: int64(at), vcpu: int32(vcpu), app: app, detail: detail,
		cpu: int16(cpu), node: int8(node), arg: int64(arg)}
	fits := int(r.vcpu) == vcpu && int(r.cpu) == cpu && int(r.node) == node
	if detail != typedDetail {
		// Only hypervisor events are typed, and they name no host or VM;
		// a text record's arg holds those refs instead of an Arg.
		fits = fits && arg == 0
		r.arg = int64(host)<<32 | int64(uint32(vm))
	}
	ref := l.intern(kind)
	k, ok := l.kindIndex(ref)
	if fits && ok {
		r.kind = k
	} else {
		r.kind = wideKind
		r.vcpu, r.cpu, r.node = 0, 0, 0
		r.arg = int64(len(l.wide))
		l.wide = append(l.wide, wideRecord{arg: arg, vcpu: vcpu, cpu: cpu, node: node, kind: ref, host: host, vm: vm})
	}
	*l.slot() = r
	if l.grown != nil {
		close(l.grown)
		l.grown = nil
	}
}

// blockOf returns the block holding record i and i's offset in it.
func blockOf(i int) (k, off int) {
	k = bits.Len(uint(i/logBlock+1)) - 1
	return k, i - logBlock*(1<<k-1)
}

// slot returns the next record's place, adding a block when the last is
// full. l.mu is held.
func (l *EventLog) slot() *logRecord {
	k, off := blockOf(l.n)
	switch size := logBlock << k; {
	case k == len(l.blocks):
		l.blocks = append(l.blocks, make([]logRecord, size))
	case len(l.blocks[k]) < size:
		// The seal cut the last block to its records. Restore its room
		// in a new outer slice: readers may hold the old one.
		full := make([]logRecord, size)
		copy(full, l.blocks[k])
		l.blocks = append(l.blocks[:k:k], full)
	}
	l.n++
	return &l.blocks[k][off]
}

// kindIndex returns the kind-table index of the kind string ref, adding
// it while the table has room. l.mu is held.
func (l *EventLog) kindIndex(ref int32) (uint8, bool) {
	if int(ref) < len(l.kindOf) && l.kindOf[ref] != 0 {
		return l.kindOf[ref] - 1, true
	}
	if len(l.kinds) == wideKind {
		return 0, false
	}
	if int(ref) >= len(l.kindOf) {
		l.kindOf = append(l.kindOf, make([]uint8, int(ref)+1-len(l.kindOf))...)
	}
	l.kinds = append(l.kinds, ref)
	l.kindOf[ref] = uint8(len(l.kinds))
	return uint8(len(l.kinds) - 1), true
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

// seal trims the log of a run that has returned: the last block of
// records and every table become exact-length copies, and the intern
// state goes. The block list is copied too, so no reader's snapshot
// changes.
func (l *EventLog) seal() {
	l.mu.Lock()
	blocks := make([][]logRecord, len(l.blocks))
	copy(blocks, l.blocks)
	if k, off := blockOf(l.n); off != 0 {
		blocks[k] = exactCopy(blocks[k][:off])
	}
	l.blocks = blocks
	l.wide = exactCopy(l.wide)
	l.kinds = exactCopy(l.kinds)
	l.strs = exactCopy(l.strs)
	l.names, l.kindOf = nil, nil
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
	blocks, wide, kinds, strs := l.blocks, l.wide, l.kinds, l.strs
	l.mu.Unlock()
	str := func(ref int32) string {
		if ref == 0 {
			return ""
		}
		return strs[ref-1]
	}
	var scratch [128]byte // a typed line fits; a longer one moves to the heap
	line := scratch[:0]
	for i := from; i < to; i++ {
		k, off := blockOf(i)
		r := &blocks[k][off]
		vcpu, cpu, node, arg := int(r.vcpu), int(r.cpu), int(r.node), sim.Duration(r.arg)
		var kind, host, vm int32
		switch {
		case r.kind == wideKind:
			w := &wide[r.arg]
			vcpu, cpu, node, arg = w.vcpu, w.cpu, w.node, w.arg
			kind, host, vm = w.kind, w.host, w.vm
		case r.detail == typedDetail:
			kind = kinds[r.kind]
		default:
			kind, host, vm = kinds[r.kind], int32(r.arg>>32), int32(r.arg)
		}
		at, app := time.Duration(r.at), str(r.app)
		if r.detail == typedDetail {
			line = xen.Event{
				Kind: xen.EventKind(str(kind)),
				VCPU: xen.VCPUID(vcpu),
				CPU:  numa.CPUID(cpu),
				App:  app,
				Arg:  arg,
			}.AppendDetail(line[:0])
			b = appendEventJSON(b, at, str(kind), vcpu, node, app, str(host), str(vm), line)
		} else {
			b = appendEventJSON(b, at, str(kind), vcpu, node, app, str(host), str(vm), str(r.detail))
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
