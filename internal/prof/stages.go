package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stages records where a run's host time went: one stage per unit of
// scheduled work (a recording, a sweep cell), with the lane it ran on and its
// start and end on the monotonic clock, as offsets from the recorder's
// creation — which commands do first thing, so the offsets read as time since
// process start. Like the profiles above it is host-side observation only:
// commands print it to stderr, and nothing read from it may reach a report
// body, a manifest or a cache key.
//
// A nil *Stages records nothing and costs nothing — no clock read, no
// allocation — so call sites need no guard (the telemetry.Recorder
// convention). Safe for concurrent use: lanes start and end stages at once.
type Stages struct {
	origin time.Time

	mu   sync.Mutex
	list []Stage
}

// Stage is one recorded stage. End is zero until the stage has ended.
type Stage struct {
	Lane       int    // 0 is the recorder lane, 1.. the replay lanes
	Kind, Name string // "record" or "cell"; the algorithm or the cell's label
	Start, End time.Duration
	Marks      []string // how the work was avoided, if it was: "cached", "shared"
}

// NewStages returns a recorder whose clock starts now.
func NewStages() *Stages { return &Stages{origin: time.Now()} }

// Span is one stage in progress; the zero Span (from a nil recorder) is inert.
type Span struct {
	s   *Stages
	idx int
}

// Start opens a stage on the given lane.
func (s *Stages) Start(lane int, kind, name string) Span {
	if s == nil {
		return Span{}
	}
	at := time.Since(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, Stage{Lane: lane, Kind: kind, Name: name, Start: at})
	return Span{s: s, idx: len(s.list) - 1}
}

// MarkIf is mark when on holds and no mark otherwise, for End.
func MarkIf(on bool, mark string) string {
	if on {
		return mark
	}
	return ""
}

// End closes the stage, attaching the non-empty marks.
func (sp Span) End(marks ...string) {
	if sp.s == nil {
		return
	}
	at := time.Since(sp.s.origin)
	sp.s.mu.Lock()
	defer sp.s.mu.Unlock()
	st := &sp.s.list[sp.idx]
	st.End = at
	for _, m := range marks {
		if m != "" {
			st.Marks = append(st.Marks, m)
		}
	}
}

// EndAs closes the stage under a new name, for work whose kind is known only
// once it is done: an upload the store answered by a compare ("resident") or
// one it had to verify ("verify").
func (sp Span) EndAs(name string, marks ...string) {
	if sp.s == nil {
		return
	}
	sp.s.mu.Lock()
	sp.s.list[sp.idx].Name = name
	sp.s.mu.Unlock()
	sp.End(marks...)
}

// Snapshot returns the stages recorded so far, in start order.
func (s *Stages) Snapshot() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]Stage(nil), s.list...)
	s.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// ServerTiming renders the ended stages, in start order, as the value of an
// HTTP Server-Timing header: each stage's name and its duration in
// milliseconds, "queue;dur=0.012, replay;dur=3.208". The daemon sends it so
// a request's host time travels in a header, never in a body.
func (s *Stages) ServerTiming() string {
	var b strings.Builder
	for _, st := range s.Snapshot() {
		if st.End == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(Metric(st.Name, st.End-st.Start))
	}
	return b.String()
}

// Sum is the summed duration of the ended stages of one kind: a sweep's
// recordings ("record"), or its cells across every lane ("cell"). The daemon
// sends sums where one metric per stage would not do: a cell's label ("GNU
// Sort") is not a Server-Timing token, and a sweep has dozens of cells.
func (s *Stages) Sum(kind string) time.Duration {
	var d time.Duration
	for _, st := range s.Snapshot() {
		if st.Kind == kind && st.End != 0 {
			d += st.End - st.Start
		}
	}
	return d
}

// Metric renders one Server-Timing metric: the name and the duration in
// milliseconds, "replay;dur=3.208".
func Metric(name string, d time.Duration) string {
	return fmt.Sprintf("%s;dur=%.3f", name, float64(d)/float64(time.Millisecond))
}

// WriteTo prints one line per stage, in start order — the -timings output.
func (s *Stages) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, st := range s.Snapshot() {
		lane := fmt.Sprintf("replay-%d", st.Lane)
		if st.Lane == 0 {
			lane = "recorder"
		}
		fmt.Fprintf(&b, "timings: %-6s %-24s lane=%-9s start=%8.3fs end=%8.3fs", st.Kind, st.Name, lane,
			st.Start.Seconds(), st.End.Seconds())
		if len(st.Marks) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(st.Marks, ","))
		}
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		return 0, nil
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
