package vprobe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// XenEventHook exposes eventHook to the external tests: it builds the
// hook a Simulator gives its hypervisor for sink.
var XenEventHook = eventHook

// TestEventLogRecordsHoldNoPointers keeps the log's records out of the
// garbage collector's scan: a chunk holds its record bytes and numbers
// only, so a cached run's events cost no mark work however many it holds.
func TestEventLogRecordsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(logChunk{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Uint8 {
				t.Errorf("logChunk.%s is a %s, whose elements the collector scans", f.Name, f.Type)
			}
		default:
			t.Errorf("logChunk.%s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
}

// TestEventLogRecordSize bounds what a record costs on the serve-mix
// spec shape (a 0.5 s two-VM scenario, nearly all dispatch and block
// records): at most 12 bytes an event, chunk slack included; 10.3
// measured.
func TestEventLogRecordSize(t *testing.T) {
	log := new(EventLog)
	s, horizon, err := CompileScenario(ScenarioSpec{
		Scheduler: string(SchedulerVProbe), Seed: 7, Horizon: SpecDuration(500 * time.Millisecond),
		VMs: []VMSpec{
			{Name: "vm1", MemoryMB: 4096, VCPUs: 4, Memory: "stripe", FillGuestIdle: true,
				Apps: []AppSpec{{Name: "soplex"}, {Name: "mcf"}}},
			{Name: "vm2", MemoryMB: 2048, VCPUs: 4, Apps: []AppSpec{{Name: "milc"}, {Name: "lu"}}},
		},
	}, CompileOptions{Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, c := range log.chunks {
		held += len(c.buf)
	}
	per := float64(held) / float64(log.Len())
	t.Logf("%d events in %d B: %.1f B an event", log.Len(), held, per)
	if log.Len() < 100 || per > 12 {
		t.Errorf("%d events hold %.1f B each, want at most 12", log.Len(), per)
	}
}

// cancelAtLen is a context that reads as cancelled once log holds more
// than n events. The engine polls it from inside the run, so the
// cancellation lands at the same event on every run, long before the
// watched app could finish.
type cancelAtLen struct {
	context.Context
	log *EventLog
	n   int
}

func (c cancelAtLen) Err() error {
	if c.log.Len() > c.n {
		return context.Canceled
	}
	return nil
}

// TestEventLogSealedAfterRun checks that a run leaves its log at exact
// length with no intern state whether it finishes, is cancelled or is a
// cluster run, and that an append after the seal still renders as the
// event it was given.
func TestEventLogSealedAfterRun(t *testing.T) {
	simulate := func(ctx context.Context, log *EventLog, horizon time.Duration) error {
		s, _, err := CompileScenario(ScenarioSpec{
			Scheduler: string(SchedulerVProbe),
			VMs: []VMSpec{{Name: "vm1", MemoryMB: 2048, VCPUs: 2, FillGuestIdle: true,
				Apps: []AppSpec{{Name: "soplex"}}}},
		}, CompileOptions{Events: log})
		if err != nil {
			return err
		}
		_, err = s.RunContext(ctx, horizon)
		return err
	}
	fill := func(log *EventLog, n int) error {
		for i := range n {
			log.HandleEvent(Event{At: time.Duration(i), Kind: EventVMArrive, VCPU: -1, Node: -1, VM: "vm-1", Detail: "arrive"})
		}
		log.seal()
		return nil
	}
	runs := []struct {
		name string
		run  func(*EventLog) error
	}{
		{"done", func(log *EventLog) error {
			return simulate(context.Background(), log, 200*time.Millisecond)
		}},
		{"cancelled", func(log *EventLog) error {
			ctx := cancelAtLen{Context: context.Background(), log: log, n: 100}
			if err := simulate(ctx, log, time.Hour); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("a cancelled run returned %v", err)
			}
			return nil
		}},
		{"cluster", func(log *EventLog) error {
			_, err := RunCluster(context.Background(), ClusterSpec{
				Hosts: 2, Seed: 9, Horizon: SpecDuration(30 * time.Second), Workers: 1,
			}, CompileOptions{Events: log})
			return err
		}},
		// Sealed by hand. Each fill record is 8 bytes, so 96 of them fill
		// the 256 and 512 B chunks exactly.
		{"partial chunk", func(log *EventLog) error { return fill(log, 38) }},
		{"full chunk", func(log *EventLog) error { return fill(log, 96) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			log := new(EventLog)
			if err := r.run(log); err != nil {
				t.Fatal(err)
			}
			if log.Len() == 0 {
				t.Fatal("the run recorded no events")
			}
			if len(log.chunks) != cap(log.chunks) {
				t.Errorf("sealed log keeps %d/%d chunk slots", len(log.chunks), cap(log.chunks))
			}
			for i, c := range log.chunks {
				if len(c.buf) != cap(c.buf) {
					t.Errorf("chunk %d is sliced to %d/%d bytes", i, len(c.buf), cap(c.buf))
				}
			}
			if last := log.chunks[len(log.chunks)-1].buf; log.used != len(last) {
				t.Errorf("sealed log's last chunk holds %d bytes, %d used", len(last), log.used)
			}
			if len(log.strs) != cap(log.strs) {
				t.Errorf("sealed log keeps spare string table capacity: %d/%d", len(log.strs), cap(log.strs))
			}
			if log.names != nil {
				t.Error("sealed log keeps its intern map")
			}

			want := log.AppendJSONL(nil, 0, log.Len())
			for _, ev := range []Event{
				{At: time.Second, Kind: EventDispatch, VCPU: 3, Node: 1, App: "soplex", Detail: "again"},
				{At: 2 * time.Second, Kind: EventVMPlace, VCPU: -1, Node: -1, Host: "host-01", VM: "vm-7", Detail: "placed"},
				{At: 3 * time.Second, Kind: "new kind", VCPU: 1 << 40, Node: 300, Detail: "wide"},
			} {
				log.HandleEvent(ev)
				want = append(ev.AppendJSON(want), '\n')
			}
			if got := log.AppendJSONL(nil, 0, log.Len()); string(got) != string(want) {
				t.Errorf("appends after the seal render differently\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// FuzzEventLogRanges appends a fuzz-driven event sequence long enough to
// span several chunks, seals the log part way through and appends the
// rest after the seal, then checks that every range it reads renders as
// the concatenated Event.AppendJSON of the same events. Each script byte
// picks one event's shape (a cluster event, a public event with an app,
// a typed or a text hypervisor event), its time step (forward in whole
// µs or in ns, backward, none, or a jump to ±1<<62, in µs for a
// hypervisor event) and its field values.
func FuzzEventLogRanges(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint16(300), uint16(150), uint8(7))
	f.Add([]byte{0x15, 0x19, 0x41, 0x5e, 0x67, 0x8d}, uint16(900), uint16(0), uint8(1))
	f.Add([]byte{0xff, 0x35, 0x11}, uint16(1200), uint16(1200), uint8(50))
	f.Add([]byte("dispatch"), uint16(640), uint16(333), uint8(13))
	f.Fuzz(func(t *testing.T, script []byte, count, sealAt uint16, stride uint8) {
		if len(script) == 0 {
			script = []byte{0}
		}
		n := 200 + int(count)%1000
		vcpus := [...]int{-1, 0, 3, 127, 1 << 40, -1 << 40}
		nodes := [...]int{-1, 0, 1, 300}
		cpus := [...]int{-1, 0, 5, 1 << 16}
		args := [...]sim.Duration{0, 1, 30000, 1 << 53, -1500}
		kinds := [...]string{string(EventDispatch), string(EventBlock), string(EventVMPlace), "kind <&>"}
		log := new(EventLog)
		hook := eventHook(log)
		var lines []string
		at := time.Duration(0)
		for i := range n {
			if i == int(sealAt)%(n+1) {
				log.seal()
			}
			b := script[i%len(script)] + byte(i/len(script))
			j := i + int(b)
			step := (b >> 2) & 7
			switch step {
			case 0, 1:
				at += time.Duration(j%40000) * time.Microsecond
			case 2:
				at += time.Duration(j % 1999)
			case 3:
				at -= time.Duration(j) * time.Millisecond
			case 4:
				at = 1 << 62
			case 5:
				at = -1 << 62
			}
			kind, vcpu, node := kinds[(j/3)%len(kinds)], vcpus[j%len(vcpus)], nodes[(j/2)%len(nodes)]
			var ev Event
			switch b & 3 {
			case 0, 1:
				ev = Event{At: at, Kind: EventKind(kind), VCPU: vcpu, Node: node, Detail: fmt.Sprintf("event %d", i)}
				if b&3 == 0 {
					ev.Host, ev.VM = fmt.Sprintf("host-%02d", j%7), fmt.Sprintf("vm-%d", j%11)
				} else {
					ev.App = "mcf"
				}
				log.HandleEvent(ev)
			default:
				xe := xen.Event{At: sim.Time(at / time.Microsecond), Kind: xen.EventKind(kind), VCPU: xen.VCPUID(vcpu),
					CPU: numa.CPUID(cpus[j%len(cpus)]), Node: numa.NodeID(node), App: "lu", Arg: args[j%len(args)]}
				if step == 4 || step == 5 {
					// ±1<<62 µs: the conversion to a Duration wraps.
					xe.At = sim.Time(at)
				}
				if b&3 == 3 {
					xe.Detail = fmt.Sprintf("domain vm%d", j%3)
				}
				hook(xe)
				eventHook(EventFunc(func(e Event) { ev = e }))(xe)
			}
			lines = append(lines, string(ev.AppendJSON(nil))+"\n")
		}
		if log.Len() != n {
			t.Fatalf("the log holds %d events, want %d", log.Len(), n)
		}
		if len(log.chunks) < 3 {
			t.Fatalf("%d events fill only %d chunks", n, len(log.chunks))
		}
		check := func(from, to int) {
			if got, want := string(log.AppendJSONL(nil, from, to)), strings.Join(lines[from:to], ""); got != want {
				t.Fatalf("AppendJSONL(%d, %d)\n got: %s\nwant: %s", from, to, got, want)
			}
		}
		check(0, n)
		span := 1 + int(stride)%61
		for from := 0; from <= n; from += span {
			check(from, from)
			check(from, min(from+span, n))
		}
		// Every chunk boundary, entered from either side.
		for _, c := range log.chunks {
			check(max(c.first-1, 0), min(c.first+1, n))
		}
	})
}
