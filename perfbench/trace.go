package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into the program. Spans nest: parent indexes
// the enclosing span, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Time
	allocMB    float64 // heap allocated during the span, children included
}

// tracer keeps spans in memory for the length of a traced run and
// writes them out once, at its end, so tracing adds no I/O to the
// spans it measures.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// do runs fn inside a span named name and returns fn's error.
func (t *tracer) do(name string, fn func() error) error {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent})
	t.open = append(t.open, id)
	a0 := allocatedMB()
	t.spans[id].start = time.Now()
	err := fn()
	t.spans[id].end = time.Now()
	t.spans[id].allocMB = allocatedMB() - a0
	t.open = t.open[:len(t.open)-1]
	return err
}

// add records a span measured elsewhere (a request timed by the load
// generator) under the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
}

// last returns the most recent span with the given name.
func (t *tracer) last(name string) span {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].name == name {
			return t.spans[i]
		}
	}
	return span{}
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTimes is each span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": i, "parent": parent, "self_ms": millis(self[i]), "alloc_mb": s.allocMB,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}
