package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/units"
)

// Chrome trace-event export: the JSON object format understood by Perfetto
// (ui.perfetto.dev) and chrome://tracing. The writer is hand-rolled rather
// than reflection-based so the byte stream is a pure function of the
// recorded data: fixed key order, fixed number formatting, no map
// iteration. Determinism here is load-bearing — the golden-digest test
// compares exports byte for byte across runs and GOMAXPROCS settings.
//
// Layout: one process (pid 1) named for the machine; each slice/instant
// track (phases, per-core barrier waits, dma, faults) is a named thread;
// each registered probe becomes a counter track ("C" events) showing the
// per-epoch delta — i.e. traffic per epoch, the time-resolved view of the
// end-of-run aggregates in machine.Result.

const chromePid = 1

// ExportChrome writes the full timeline as Chrome trace-event JSON.
func (r *Recorder) ExportChrome(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		bw.WriteString(s)
	}

	// Process and thread metadata. Thread ids are assigned by first
	// appearance: the phase track, then span and instant tracks.
	emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"nmsim machine"}}`, chromePid))
	tracks := r.sliceTracks()
	tid := map[string]int{}
	for i, name := range tracks {
		tid[name] = i + 1
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			chromePid, i+1, jsonString(name)))
	}

	// Phase slices: each phase runs until the next mark or the replay end.
	for i, ph := range r.phases {
		end := r.end
		if i+1 < len(r.phases) {
			end = r.phases[i+1].at
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s}`,
			chromePid, tid[phaseTrack], chromeTs(ph.at), chromeTs(end-ph.at), jsonString(ph.name)))
	}

	// Spans and instants, in recorded (event-loop) order.
	for i := range r.spans {
		s := r.spans[i]
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s}`,
			chromePid, tid[s.track], chromeTs(s.start), chromeTs(s.end-s.start), jsonString(s.name)))
	}
	for i := range r.instants {
		in := r.instants[i]
		emit(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s}`,
			chromePid, tid[in.track], chromeTs(in.at), jsonString(in.name)))
	}

	// Counter tracks: one per probe, valued with the per-epoch delta so the
	// track reads as traffic per epoch rather than a monotone ramp.
	for s := 0; s < len(r.times); s++ {
		row := r.row(s)
		var prev []uint64
		if s > 0 {
			prev = r.row(s - 1)
		}
		for p := range r.probes {
			v := row[p]
			if prev != nil {
				v -= prev[p]
			}
			emit(fmt.Sprintf(`{"ph":"C","pid":%d,"ts":%s,"name":%s,"args":{"value":%d}}`,
				chromePid, chromeTs(r.times[s]), jsonString(r.probes[p].track+"."+r.probes[p].name), v))
		}
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// chromeTs renders a simulated time as trace-event microseconds with full
// picosecond precision, deterministically ("%d.%06d" — no float formatting).
func chromeTs(t units.Time) string {
	if t < 0 {
		t = 0
	}
	return fmt.Sprintf("%d.%06d", int64(t)/int64(units.Microsecond), int64(t)%int64(units.Microsecond))
}

// jsonString renders a track or event name as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		panic(err)
	}
	return string(b)
}

// ValidateChromeJSON checks that data parses as a Chrome trace-event JSON
// object with a non-empty traceEvents array whose entries carry the
// required "ph" and "name" fields. `nmtrace check` and the CI smoke test use
// it to validate generated timelines without a browser.
func ValidateChromeJSON(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("telemetry: not trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: traceEvents array is missing or empty")
	}
	for i, ev := range doc.TraceEvents {
		var ph, name string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil || ph == "" {
			return fmt.Errorf("telemetry: event %d has no phase type", i)
		}
		if err := json.Unmarshal(ev["name"], &name); err != nil || name == "" {
			return fmt.Errorf("telemetry: event %d has no name", i)
		}
	}
	return nil
}
