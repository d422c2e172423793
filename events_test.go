package vprobe_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// wireEvent is the reference for Event.AppendJSON: the struct whose
// encoding/json rendering the event stream has always carried.
type wireEvent struct {
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	VCPU   int     `json:"vcpu"`
	Node   int     `json:"node"`
	App    string  `json:"app,omitempty"`
	Host   string  `json:"host,omitempty"`
	VM     string  `json:"vm,omitempty"`
	Detail string  `json:"detail"`
}

// FuzzEventJSON compares Event.AppendJSON with encoding/json over
// arbitrary field values, and an EventLog's rendering with both. The
// corpus is seeded from vprobe-sim's traced soplex event golden plus
// strings that exercise every escape: HTML-sensitive bytes, quotes,
// control bytes, invalid UTF-8, U+2028/U+2029 and µs; and with wide
// field values (a node beyond int8, a VCPU beyond int32, a CPU beyond
// int16, a time of 1<<62, an Arg beside a text Detail). Its logs hold two
// events; FuzzEventLogRanges covers logs that span several chunks.
func FuzzEventJSON(f *testing.F) {
	file, err := os.Open("cmd/vprobe-sim/testdata/soplex_events.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		var w wireEvent
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			f.Fatal(err)
		}
		at := int64(w.T*1e6+0.5) * int64(time.Microsecond)
		f.Add(at, w.Kind, w.VCPU, w.Node, 0, int64(0), w.App, w.Host, w.VM, w.Detail)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), "dispatch", -1, -1, 3, int64(30000), "", "", "", "guest vm: thread a moved vcpu0 -> vcpu1 <&>")
	f.Add(int64(-3*time.Second), `k"\`, 0, 0, -1, int64(-1500), "a\x00\x01\b\f\n\r\t\x1f\x7f", "h\u2028\u2029", "v\xff\xfe", "blocks 323µs")
	f.Add(int64(1<<62), "\xe2\x80", 7, 1, 1<<40, int64(1<<53), "\U0001F600", "<script>", "&amp;", "\xed\xa0\x80 surrogate")
	f.Add(int64(5000), "block", 2, 214, 1, int64(700), "mcf", "", "", "")
	f.Add(int64(5000), "dispatch", 1<<40, 0, 1, int64(30000), "lu", "host-01", "vm-1", "")
	f.Add(int64(5000), "dispatch", 4, 1, 1<<16, int64(30000), "lu", "", "", "")
	f.Fuzz(func(t *testing.T, at int64, kind string, vcpu, node, cpu int, arg int64, app, host, vm, detail string) {
		ev := vprobe.Event{
			At: time.Duration(at), Kind: vprobe.EventKind(kind), VCPU: vcpu, Node: node,
			App: app, Host: host, VM: vm, Detail: detail,
		}
		want, err := json.Marshal(wireEvent{
			T: ev.At.Seconds(), Kind: kind, VCPU: vcpu, Node: node,
			App: app, Host: host, VM: vm, Detail: detail,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A non-empty prefix checks that AppendJSON appends.
		if got := ev.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON(%#v)\n got: %s\nwant: prefix%s", ev, got, want)
		}
		// An EventLog renders the same record; the second copy reads its
		// strings back through the log's interned entries.
		var log vprobe.EventLog
		log.HandleEvent(ev)
		log.HandleEvent(ev)
		line := string(want) + "\n"
		if got := log.AppendJSONL([]byte("prefix"), 0, 2); string(got) != "prefix"+line+line {
			t.Fatalf("EventLog.AppendJSONL(%#v)\n got: %s\nwant: prefix%s%s", ev, got, line, line)
		}
		// A hypervisor event, with its text Detail and typed, renders in a
		// log as the Event any other sink receives.
		xe := xen.Event{At: sim.Time(at), Kind: xen.EventKind(kind), VCPU: xen.VCPUID(vcpu), CPU: numa.CPUID(cpu),
			Node: numa.NodeID(node), App: app, Arg: sim.Duration(arg), Detail: detail}
		for _, xe := range []xen.Event{xe, {At: xe.At, Kind: xe.Kind, VCPU: xe.VCPU, CPU: xe.CPU, Node: xe.Node, App: xe.App, Arg: xe.Arg}} {
			var typed vprobe.EventLog
			vprobe.XenEventHook(&typed)(xe)
			var public vprobe.Event
			vprobe.XenEventHook(vprobe.EventFunc(func(ev vprobe.Event) { public = ev }))(xe)
			if got, want := typed.AppendJSONL(nil, 0, 1), append(public.AppendJSON(nil), '\n'); string(got) != string(want) {
				t.Fatalf("EventLog of %#v\n got: %s\nwant: %s", xe, got, want)
			}
		}
	})
}

// TestEventLogTypedPath feeds every xen event kind to a Simulator's event
// hook, once with an EventLog attached (dispatch and block stored as
// typed fields) and once with an EventFunc (the Detail rendered for the
// public Event), and pins both against Event.AppendJSON with the Detail
// its fmt format gives. Cluster kinds go through EventLog.HandleEvent.
func TestEventLogTypedPath(t *testing.T) {
	const app = `soplex <"&">`
	type typed struct {
		ev     xen.Event
		detail string // the fmt rendering of the line
	}
	dispatch := func(used sim.Duration) typed {
		return typed{
			xen.Event{At: 1500, Kind: xen.EventDispatch, VCPU: 3, CPU: 5, Node: 1, App: app, Arg: used},
			fmt.Sprintf("pcpu%d run vcpu%d (%s) %.1fms", 5, 3, app, used.Millis()),
		}
	}
	block := func(wait sim.Duration) typed {
		return typed{
			xen.Event{At: 2_000_001, Kind: xen.EventBlock, VCPU: 7, CPU: 0, Node: 0, App: app, Arg: wait},
			fmt.Sprintf("vcpu%d (%s) blocks %v", 7, app, wait),
		}
	}
	cold := func(kind xen.EventKind, vcpu xen.VCPUID, node numa.NodeID, app, detail string) typed {
		return typed{xen.Event{At: 9_999_999, Kind: kind, VCPU: vcpu, CPU: -1, Node: node, App: app, Detail: detail}, detail}
	}
	var cases []typed
	// Dispatch: integer tenths, ties (used%100 == 50) and their
	// neighbours, a second-long quantum, and the exact-float bound.
	for _, used := range []sim.Duration{1, 49, 50, 51, 150, 250, 1049, 1050, 1051, 29950, 30000, 1_000_050, 1 << 53} {
		cases = append(cases, dispatch(used))
	}
	// Block: µs, ms and s branches, ties (d%1000 == 500 past a second),
	// and negatives in every branch.
	for _, wait := range []sim.Duration{1, 999, 1000, 1001, 999_999, 1_000_000, 1_000_500, 1_001_500, 2_999_500, 59_999_500,
		-1, -999, -1000, -1500, -1_000_000, -1_000_500} {
		cases = append(cases, block(wait))
	}
	cases = append(cases,
		cold(xen.EventAppFinish, 3, 1, app, "vcpu3 (soplex) finished"),
		cold(xen.EventGuestMove, 4, numa.NoNode, "mcf", "guest vm1: thread mcf moved vcpu2 -> vcpu4"),
	)

	log := new(vprobe.EventLog)
	logged, _ := compile(t, oneVM(), vprobe.CompileOptions{Events: log})
	var public []vprobe.Event
	funced, _ := compile(t, oneVM(), vprobe.CompileOptions{Events: vprobe.EventFunc(func(ev vprobe.Event) {
		public = append(public, ev)
	})})
	var want []byte
	for _, c := range cases {
		logged.Hypervisor().EventFn(c.ev)
		funced.Hypervisor().EventFn(c.ev)
		want = append(vprobe.Event{
			At: time.Duration(c.ev.At) * time.Microsecond, Kind: vprobe.EventKind(c.ev.Kind),
			VCPU: int(c.ev.VCPU), Node: int(c.ev.Node), App: c.ev.App, Detail: c.detail,
		}.AppendJSON(want), '\n')
		if got := c.ev.String(); got != c.detail {
			t.Errorf("xen.Event.String() = %q, fmt gives %q", got, c.detail)
		}
	}
	for _, kind := range []vprobe.EventKind{
		vprobe.EventVMArrive, vprobe.EventVMPlace, vprobe.EventVMRetry, vprobe.EventVMReject,
		vprobe.EventVMDepart, vprobe.EventMigrateStart, vprobe.EventMigrateDone,
		vprobe.EventVMPreempted, vprobe.EventGangAdmitted, vprobe.EventBackfill, vprobe.EventDeschedule,
	} {
		ev := vprobe.Event{At: 3 * time.Second, Kind: kind, VCPU: -1, Node: -1,
			Host: "host-01", VM: "vm-<7>", Detail: string(kind) + " vm-<7> on host-01"}
		log.HandleEvent(ev)
		public = append(public, ev)
		want = append(ev.AppendJSON(want), '\n')
	}

	if got := log.AppendJSONL(nil, 0, log.Len()); string(got) != string(want) {
		t.Errorf("EventLog rendering differs\n got: %s\nwant: %s", got, want)
	}
	var viaFunc []byte
	for _, ev := range public {
		viaFunc = append(ev.AppendJSON(viaFunc), '\n')
	}
	if string(viaFunc) != string(want) {
		t.Errorf("EventFunc events differ\n got: %s\nwant: %s", viaFunc, want)
	}
	// Any range renders its own lines.
	lines := strings.SplitAfter(string(want), "\n")
	for from := 0; from < log.Len(); from += 7 {
		to := min(from+3, log.Len())
		if got := log.AppendJSONL(nil, from, to); string(got) != strings.Join(lines[from:to], "") {
			t.Errorf("AppendJSONL(%d, %d) = %s", from, to, got)
		}
	}
}

// TestEventLogFollowersDuringRun reads a log from several goroutines
// while a simulation appends to it, as vprobe-serve's followers do: each
// waits on Grown, renders what arrived, and must end with exactly the
// bytes of the finished log.
func TestEventLogFollowersDuringRun(t *testing.T) {
	log := new(vprobe.EventLog)
	s, _ := compile(t, vprobe.ScenarioSpec{
		Scheduler: string(vprobe.SchedulerVProbe),
		VMs: []vprobe.VMSpec{{Name: "vm1", MemoryMB: 2048, VCPUs: 2, FillGuestIdle: true,
			Apps: apps("soplex", 1)}},
	}, vprobe.CompileOptions{Events: log})
	done := make(chan struct{})
	const followers = 3
	got := make([][]byte, followers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for off := 0; ; {
				finished := false
				select {
				case <-log.Grown(off):
				case <-done:
					finished = true
				}
				n := log.Len()
				got[i] = log.AppendJSONL(got[i], off, n)
				off = n
				if finished {
					return
				}
			}
		}(i)
	}
	_, err := s.RunContext(context.Background(), 300*time.Millisecond)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := log.AppendJSONL(nil, 0, log.Len())
	if len(want) == 0 {
		t.Fatal("the run recorded no events")
	}
	for i, b := range got {
		if string(b) != string(want) {
			t.Errorf("follower %d read %d bytes, the log renders %d", i, len(b), len(want))
		}
	}
}

// TestEventLogGrown pins the wake-up a follower waits on: Grown(n) is
// closed once the log holds more than n events, at once if it already
// does, and by the append that gets it there otherwise.
func TestEventLogGrown(t *testing.T) {
	closed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	var log vprobe.EventLog
	waiting := log.Grown(0)
	if closed(waiting) {
		t.Fatal("Grown(0) of an empty log is closed")
	}
	log.HandleEvent(vprobe.Event{Kind: vprobe.EventVMArrive, Detail: "arrive"})
	if !closed(waiting) {
		t.Fatal("the first append did not close Grown(0)")
	}
	if !closed(log.Grown(0)) {
		t.Fatal("Grown(0) of a one-event log is open")
	}
	if closed(log.Grown(1)) {
		t.Fatal("Grown(1) of a one-event log is closed")
	}
}

// TestEventLogManyKinds puts 300 distinct kinds into one log, enough
// that kind refs take two varint bytes, in every record shape: a cluster
// event, a text-Detail hypervisor event and a typed dispatch. Each
// renders as the Event another sink receives, and every range renders
// its own lines.
func TestEventLogManyKinds(t *testing.T) {
	shapes := []struct {
		name string
		emit func(hook func(xen.Event), sink vprobe.EventSink, kind string, i int) vprobe.Event
	}{
		{"cluster", func(_ func(xen.Event), sink vprobe.EventSink, kind string, i int) vprobe.Event {
			ev := vprobe.Event{At: time.Duration(i) * time.Millisecond, Kind: vprobe.EventKind(kind), VCPU: -1, Node: -1,
				Host: fmt.Sprintf("host-%02d", i%7), VM: fmt.Sprintf("vm-%d", i), Detail: "placed " + kind}
			sink.HandleEvent(ev)
			return ev
		}},
		{"text", func(hook func(xen.Event), _ vprobe.EventSink, kind string, i int) vprobe.Event {
			xe := xen.Event{At: sim.Time(i), Kind: xen.EventKind(kind), VCPU: xen.VCPUID(i % 5), CPU: -1,
				Node: numa.NoNode, App: "mcf", Detail: "domain vm1 " + kind}
			hook(xe)
			return vprobe.Event{At: time.Duration(i) * time.Microsecond, Kind: vprobe.EventKind(kind), VCPU: i % 5, Node: -1,
				App: "mcf", Detail: xe.Detail}
		}},
		{"typed", func(hook func(xen.Event), _ vprobe.EventSink, kind string, i int) vprobe.Event {
			xe := xen.Event{At: sim.Time(i), Kind: xen.EventKind(kind), VCPU: 3, CPU: 5, Node: 1, App: "lu", Arg: 1050}
			hook(xe)
			// A kind that is neither dispatch nor block renders no line.
			return vprobe.Event{At: time.Duration(i) * time.Microsecond, Kind: vprobe.EventKind(kind), VCPU: 3, Node: 1,
				App: "lu", Detail: xe.String()}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			log := new(vprobe.EventLog)
			hook := vprobe.XenEventHook(log)
			var want []byte
			var lines []string
			for i := range 600 {
				kind := fmt.Sprintf("kind-%03d", i%300)
				if i%100 == 0 {
					kind = string(vprobe.EventDispatch)
				}
				line := string(sh.emit(hook, log, kind, i).AppendJSON(nil)) + "\n"
				want = append(want, line...)
				lines = append(lines, line)
			}
			if got := log.AppendJSONL(nil, 0, log.Len()); string(got) != string(want) {
				t.Fatalf("rendering differs\n got: %s\nwant: %s", got, want)
			}
			for from := 0; from < len(lines); from += 37 {
				to := min(from+50, len(lines))
				if got := log.AppendJSONL(nil, from, to); string(got) != strings.Join(lines[from:to], "") {
					t.Errorf("AppendJSONL(%d, %d) = %s", from, to, got)
				}
			}
		})
	}
}
