package vprobe_test

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
	"time"

	"vprobe"
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
// arbitrary field values. The corpus is seeded from the vprobe-trace
// event golden plus strings that exercise every escape: HTML-sensitive
// bytes, quotes, control bytes, invalid UTF-8, U+2028/U+2029 and µs.
func FuzzEventJSON(f *testing.F) {
	file, err := os.Open("cmd/vprobe-trace/testdata/soplex_events.jsonl")
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
		f.Add(at, w.Kind, w.VCPU, w.Node, w.App, w.Host, w.VM, w.Detail)
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), "dispatch", -1, -1, "", "", "", "guest vm: thread a moved vcpu0 -> vcpu1 <&>")
	f.Add(int64(-3*time.Second), `k"\`, 0, 0, "a\x00\x01\b\f\n\r\t\x1f\x7f", "h\u2028\u2029", "v\xff\xfe", "blocks 323µs")
	f.Add(int64(1<<62), "\xe2\x80", 7, 1, "\U0001F600", "<script>", "&amp;", "\xed\xa0\x80 surrogate")
	f.Fuzz(func(t *testing.T, at int64, kind string, vcpu, node int, app, host, vm, detail string) {
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
	})
}
