package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WriteSampleNDJSON writes sample row i as one line of newline-delimited
// JSON — the serving layer's progress format, which it streams between
// replay slices, consumable line by line while a job is still replaying:
//
//	{"type":"sample","t_ps":1000,"counters":{"far.ch0.bytes":4096,...}}
//
// Phase rows follow from WritePhasesNDJSON. Counter keys follow probe
// registration order (Go's encoding/json would sort them — hand-encoding
// keeps registration order AND guarantees byte-determinism without
// reflection). Names are generated identifiers ("far.ch0", "bytes"), so no
// JSON string escaping is needed.
func (r *Recorder) WriteSampleNDJSON(w io.Writer, i int) error {
	bw := bufio.NewWriterSize(w, 1<<12)
	r.appendSampleNDJSON(bw, i)
	return bw.Flush()
}

func (r *Recorder) appendSampleNDJSON(bw *bufio.Writer, s int) {
	bw.WriteString(`{"type":"sample","t_ps":`)
	bw.WriteString(strconv.FormatInt(int64(r.times[s]), 10))
	bw.WriteString(`,"counters":{`)
	for i, v := range r.row(s) {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('"')
		bw.WriteString(r.probes[i].track)
		bw.WriteByte('.')
		bw.WriteString(r.probes[i].name)
		bw.WriteString(`":`)
		bw.WriteString(strconv.FormatUint(v, 10))
	}
	bw.WriteString("}}\n")
}

// WritePhasesNDJSON writes one NDJSON object per phase attribution row —
// the same numbers as the sweep phase-breakdown block, machine-readable.
// Phase names come from trace.OpPhase markers recorded by the algorithms
// ("sort chunks", "(init)", ...): no quotes or backslashes, so plain
// encoding stays valid JSON and byte-deterministic.
func WritePhasesNDJSON(w io.Writer, phases []PhaseUsage) error {
	bw := bufio.NewWriterSize(w, 1<<14)
	for _, p := range phases {
		bw.WriteString(`{"type":"phase","name":"`)
		bw.WriteString(p.Name)
		bw.WriteString(`","start_ps":`)
		bw.WriteString(strconv.FormatInt(int64(p.Start), 10))
		bw.WriteString(`,"end_ps":`)
		bw.WriteString(strconv.FormatInt(int64(p.End), 10))
		bw.WriteString(`,"far_bytes":`)
		bw.WriteString(strconv.FormatUint(p.FarBytes, 10))
		bw.WriteString(`,"near_bytes":`)
		bw.WriteString(strconv.FormatUint(p.NearBytes, 10))
		bw.WriteString(`,"far_gbps":`)
		bw.WriteString(strconv.FormatFloat(p.FarGBps(), 'g', -1, 64))
		bw.WriteString(`,"near_gbps":`)
		bw.WriteString(strconv.FormatFloat(p.NearGBps(), 'g', -1, 64))
		bw.WriteString(`,"far_util":`)
		bw.WriteString(strconv.FormatFloat(p.FarUtil(), 'g', -1, 64))
		bw.WriteString(`,"near_util":`)
		bw.WriteString(strconv.FormatFloat(p.NearUtil(), 'g', -1, 64))
		bw.WriteString("}\n")
	}
	return bw.Flush()
}
