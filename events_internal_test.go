package vprobe

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// XenEventHook exposes eventHook to the external tests: it builds the
// hook a Simulator gives its hypervisor for sink.
var XenEventHook = eventHook

// TestEventLogRecordsHoldNoPointers keeps the log's records out of the
// garbage collector's scan: every field must be a number (or an array or
// struct of numbers), so a cached run's events cost no mark work however
// many it holds. The overflow records are held to the same rule.
func TestEventLogRecordsHoldNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	check("logRecord", reflect.TypeOf(logRecord{}))
	check("wideRecord", reflect.TypeOf(wideRecord{}))
}

// TestEventLogRecordSize pins the compact record at 32 bytes or less: a
// cached serve run holds a few hundred of them.
func TestEventLogRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(logRecord{}); size > 32 {
		t.Errorf("logRecord is %d bytes, want at most 32", size)
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
		// Sealed by hand: a last block cut short, and one left full.
		{"partial block", func(log *EventLog) error { return fill(log, logBlock+6) }},
		{"full block", func(log *EventLog) error { return fill(log, 3*logBlock) }},
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
			held := 0
			for _, b := range log.blocks {
				held += len(b)
				if len(b) != cap(b) {
					t.Errorf("sealed log keeps a record block at %d/%d", len(b), cap(b))
				}
			}
			if held != log.Len() || len(log.blocks) != cap(log.blocks) {
				t.Errorf("sealed log holds %d record slots in %d/%d blocks for %d events",
					held, len(log.blocks), cap(log.blocks), log.Len())
			}
			if len(log.strs) != cap(log.strs) || len(log.kinds) != cap(log.kinds) {
				t.Errorf("sealed log keeps spare table capacity: strs %d/%d, kinds %d/%d",
					len(log.strs), cap(log.strs), len(log.kinds), cap(log.kinds))
			}
			if log.names != nil || log.kindOf != nil {
				t.Error("sealed log keeps its intern state")
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
