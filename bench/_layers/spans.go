package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer: who caused it and when it ran, in
// nanoseconds since the log began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps one section's spans in memory until write. Spans nest by
// call: a span opened while another is running is its child. A disabled log
// only times, which is how the untraced side of bench.trace_overhead_pct
// runs the same code.
type spanLog struct {
	disabled bool
	t0       time.Time
	cur      int
	spans    []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), cur: -1} }

// in runs fn inside a span and returns its duration in seconds. The span is
// closed even when fn panics, so every child stays inside its parent.
func (s *spanLog) in(name string, fn func()) float64 {
	start := time.Now()
	if s.disabled {
		fn()
		return time.Since(start).Seconds()
	}
	id := len(s.spans)
	s.spans = append(s.spans, span{ID: id, Parent: s.cur, Name: name, StartNS: start.Sub(s.t0).Nanoseconds()})
	prev := s.cur
	s.cur = id
	defer func() {
		s.cur = prev
		s.spans[id].EndNS = time.Since(s.t0).Nanoseconds()
	}()
	fn()
	return time.Since(start).Seconds()
}

// childSeconds sums the durations of the direct children of span id.
func (s *spanLog) childSeconds(id int) float64 {
	var ns int64
	for _, c := range s.spans {
		if c.Parent == id {
			ns += c.EndNS - c.StartNS
		}
	}
	return float64(ns) / 1e9
}

func (s *spanLog) write(path string) error {
	data, err := json.MarshalIndent(s.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
