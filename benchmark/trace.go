package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// now reads the wall clock, which is what the benchmark measures; the
// simulations it drives keep their own virtual clocks.
func now() time.Time {
	return time.Now() //vet:wallclock the benchmark's measurements are wall-clock by definition
}

// sleep pauses the open-loop generator until a request is due.
func sleep(d time.Duration) {
	time.Sleep(d) //vet:wallclock an open-loop schedule runs in real time
}

// span is one recorded wall-clock interval. Times are microseconds since
// the tracer was created; Parent is 0 for a root.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"`
	EndUS   float64           `json:"end_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, so untraced code
// paths pass nil instead of branching.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3
}

// add records a finished interval and returns its id (0 on a nil tracer).
// attrs alternate keys and values.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs ...string) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, StartUS: t.us(start), EndUS: t.us(end)}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that end closes; it lets a parent be known before
// its children finish.
func (t *tracer) begin(parent int, name string) int {
	at := now()
	return t.add(parent, name, at, at)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.us(now())
	t.mu.Lock()
	t.spans[id-1].EndUS = end
	t.mu.Unlock()
}

// write stores the spans as JSON Lines in dir/spans.jsonl, in id order.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}

// hotSample is how often a hot call site reads the clock: one call in
// hotSample. Filter and Score run tens of millions of times per cluster
// run, and two clock reads on every call would cost more than the calls.
const hotSample = 8

// callTimer aggregates one call site: an exact count, plus the time and a
// percentile sketch of every every-th call. It is not synchronized; each
// timer belongs to one goroutine (a simulation engine or the cluster's
// decision loop).
type callTimer struct {
	every        uint64
	calls, timed uint64
	total        time.Duration
	sk           sketch
}

// start counts a call and reports whether to time it, with its start.
func (c *callTimer) start() (time.Time, bool) {
	c.calls++
	if c.every > 1 && c.calls%c.every != 0 {
		return time.Time{}, false
	}
	return now(), true
}

// stop records a timed call that began at t0.
func (c *callTimer) stop(t0 time.Time) {
	d := now().Sub(t0)
	c.timed++
	c.total += d
	c.sk.add(float64(d.Nanoseconds()))
}

// nsPerCall is the mean time of the timed calls.
func (c *callTimer) nsPerCall() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.total.Nanoseconds()) / float64(c.timed)
}

// estimate is the time all calls took, scaled up from the timed ones.
func (c *callTimer) estimate() time.Duration {
	return time.Duration(c.nsPerCall() * float64(c.calls))
}
