package machine

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestReplayColumnarEqualsDecoded pins the tentpole replay contract: running
// the machine against a columnar v3 file (decoding each op from mapped
// column bytes inside the event loop) produces a Result deep-equal to
// running it against the decoded *Trace.
func TestReplayColumnarEqualsDecoded(t *testing.T) {
	tr := record(4, func(tid int, tp *trace.TP) {
		for i := 0; i < 400; i++ {
			tp.Compute(int64(50 + i%9))
			tp.Load(addr.FarBase+addr.Addr(tid<<22+i*64), 8)
			if i%4 == 1 {
				tp.Store(addr.NearBase+addr.Addr(tid<<18+(i%128)*64), 8)
			}
			if i%128 == 64 {
				tp.Atomic(addr.NearBase + addr.Addr(tid<<18))
				tp.DMA(addr.FarBase+addr.Addr(tid<<22), addr.NearBase+addr.Addr(tid<<18), 2048)
				tp.DMAWait()
				tp.Barrier()
			}
		}
		tp.Barrier()
	})
	data, err := trace.EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	col, err := trace.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}

	cfg := TinyConfig(4, units.MiB)
	want, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("decoded: %v", err)
	}
	got, err := Run(cfg, col)
	if err != nil {
		t.Fatalf("columnar: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("columnar replay result differs from decoded replay:\n got %+v\nwant %+v", got, want)
	}
}
