package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Start and End are
// host nanoseconds since the run began; Parent is the index of the
// enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory and writes them once, when the run ends.
// A disabled tracer still times every call (the metrics need the
// durations) but records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// sample is one measured call: host time and the heap allocations it made.
type sample struct {
	dur    time.Duration
	bytes  uint64
	allocs uint64
}

// measure runs fn once inside a span named name. The allocation deltas
// come from runtime.MemStats, read outside the timed interval.
func (t *tracer) measure(name string, fn func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	idx := -1
	if t.on {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Parent: parent})
		t.open = append(t.open, idx)
	}
	start := time.Now()
	fn()
	end := time.Now()
	if t.on {
		t.spans[idx].Start = start.Sub(t.t0).Nanoseconds()
		t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
	runtime.ReadMemStats(&m1)
	return sample{dur: end.Sub(start), bytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs}
}

// selfTimes returns each span name's total duration minus the time its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write stores the spans and per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	self := make(map[string]int64)
	for name, d := range t.selfTimes() {
		self[name] = d.Nanoseconds()
	}
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns"`
	}{t.spans, self})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
