package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestUploadColumnarSameDigest pins serialization-independent content
// addressing through the daemon: uploading the v2 stream and the columnar
// v3 encoding of one logical trace yields one digest and one resident
// store entry, and jobs served from the v3 copy answer byte-identically
// to jobs served from the v2 copy.
func TestUploadColumnarSameDigest(t *testing.T) {
	ctx := context.Background()
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	v3, err := trace.EncodeColumnar(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}

	// Server A sees only the v2 stream; server B only the v3 file.
	ca := newTestServer(t, serve.Config{})
	cb := newTestServer(t, serve.Config{})
	infoA, err := ca.UploadTraceBytes(ctx, v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := cb.UploadTraceBytes(ctx, v3)
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Digest != infoB.Digest {
		t.Fatalf("v2 upload digest %s != v3 upload digest %s", infoA.Digest, infoB.Digest)
	}

	rawA, _, _, err := ca.SubmitJob(ctx, tinyJob(infoA.Digest))
	if err != nil {
		t.Fatal(err)
	}
	rawB, _, _, err := cb.SubmitJob(ctx, tinyJob(infoB.Digest))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("job served from v3 differs from v2:\nv2: %s\nv3: %s", rawA, rawB)
	}

	// Re-uploading the other serialization must not duplicate the entry.
	if _, err := cb.UploadTraceBytes(ctx, v2.Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := stats(t, cb).Traces; n != 1 {
		t.Fatalf("store holds %d traces after cross-serialization re-upload, want 1", n)
	}
}

// TestUploadKeepsItsSerialization: both serializations of one trace are kept
// in one serialization, the columns, and charged their image — about a tenth
// of the 32 B/op a decoded v2 upload used to cost — and a fetch returns that
// image: the v3 file, whichever serialization was uploaded.
func TestUploadKeepsItsSerialization(t *testing.T) {
	ctx := context.Background()
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v3, err := trace.EncodeColumnar(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, upload := range [][]byte{v2.Bytes(), v3} {
		name := []string{"v2", "v3"}[i]
		c := newTestServer(t, serve.Config{})
		info, err := c.UploadTraceBytes(ctx, upload)
		if err != nil {
			t.Fatalf("%s upload: %v", name, err)
		}
		if stored := stats(t, c).TraceBytes; info.Bytes != int64(len(v3)) || stored != int64(len(v3)) {
			t.Errorf("%s upload of %d ops charged %d bytes (store: %d), want its %d-byte image",
				name, info.Ops, info.Bytes, stored, len(v3))
		}
		resp, err := c.HTTP.Get(c.BaseURL + "/v1/traces/" + info.Digest)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(got, v3) {
			t.Errorf("%s upload: fetch returned %d bytes (%v), not the %d-byte image", name, len(got), err, len(v3))
		}
		// The other serialization is the same trace: no second entry.
		other := v3
		if name == "v3" {
			other = v2.Bytes()
		}
		again, err := c.UploadTraceBytes(ctx, other)
		if n := stats(t, c).Traces; err != nil || again.Digest != info.Digest || n != 1 {
			t.Errorf("%s then the other serialization: digest %s vs %s, %d entries (%v)",
				name, again.Digest, info.Digest, n, err)
		}
	}
}

// bodyTap is a transport that keeps a copy of every request body it sends,
// and notes whether each went with a Content-Length equal to its size.
type bodyTap struct {
	sent  [][]byte
	sized []bool
}

func (b *bodyTap) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		b.sent = append(b.sent, body)
		b.sized = append(b.sized, r.ContentLength == int64(len(body)))
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestUploadTraceSendsTheImage: Client.UploadTrace sends the trace's v3
// image, with its length — a recording's sealed segments, a v2 read's, an
// opened file's — and the daemon answers with the TraceInfo a v2 upload of the
// same trace gets; FetchTrace then gives back exactly the bytes sent.
func TestUploadTraceSendsTheImage(t *testing.T) {
	ctx := context.Background()
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v3, err := trace.EncodeColumnar(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	read, err := trace.ReadTrace(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	ref := newTestServer(t, serve.Config{})
	want, err := ref.UploadTraceBytes(ctx, v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{{"recording", rec.Trace}, {"v2 read", read}, {"opened file", opened.AsTrace()}} {
		c := newTestServer(t, serve.Config{})
		tap := &bodyTap{}
		c.HTTP = &http.Client{Transport: tap}
		got, err := c.UploadTrace(ctx, tc.tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: UploadTrace answered %+v, a v2 upload %+v", tc.name, got, want)
		}
		if len(tap.sent) != 1 || !bytes.Equal(tap.sent[0], v3) || !tap.sized[0] {
			t.Fatalf("%s: UploadTrace sent %d bodies, want the %d-byte v3 image once, with its length", tc.name, len(tap.sent), len(v3))
		}
		fetched, err := c.FetchTrace(ctx, got.Digest)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var back bytes.Buffer
		if _, err := fetched.Columns().WriteTo(&back); err != nil || !bytes.Equal(back.Bytes(), tap.sent[0]) {
			t.Errorf("%s: FetchTrace gave back %d bytes (%v), not the %d sent", tc.name, back.Len(), err, len(tap.sent[0]))
		}
	}
}

// TestFetchTrace: Client.FetchTrace returns every resident trace, however it
// arrived — a v3 upload, a v2 upload, a recording made by the daemon — under
// its digest and with the recording's ops.
func TestFetchTrace(t *testing.T) {
	ctx := context.Background()
	wl := tinyWorkload()
	wl.SP = units.MiB // what the recording request's sp_mib can name
	rec, err := harness.Record(harness.AlgNMSort, wl)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v3, err := trace.EncodeColumnar(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Trace.Columns().Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, arrival := range []struct {
		name string
		put  func(c *serve.Client) (serve.TraceInfo, error)
	}{
		{"v3 upload", func(c *serve.Client) (serve.TraceInfo, error) { return c.UploadTraceBytes(ctx, v3) }},
		{"v2 upload", func(c *serve.Client) (serve.TraceInfo, error) { return c.UploadTraceBytes(ctx, v2.Bytes()) }},
		{"recording", func(c *serve.Client) (serve.TraceInfo, error) {
			return c.Record(ctx, serve.RecordRequest{Alg: "nmsort", N: wl.N, Seed: wl.Seed, Threads: wl.Threads, SPMiB: 1})
		}},
	} {
		c := newTestServer(t, serve.Config{})
		info, err := arrival.put(c)
		if err != nil {
			t.Fatalf("%s: %v", arrival.name, err)
		}
		tr, err := c.FetchTrace(ctx, info.Digest)
		if err != nil {
			t.Fatalf("%s: fetch: %v", arrival.name, err)
		}
		if d, err := tr.Digest(); err != nil || fmt.Sprintf("%016x", d) != info.Digest {
			t.Errorf("%s: fetched digest %016x (%v), stored under %s", arrival.name, d, err, info.Digest)
		}
		got, err := tr.Columns().Decode()
		if err != nil {
			t.Fatalf("%s: %v", arrival.name, err)
		}
		if !reflect.DeepEqual(got.Streams, want.Streams) {
			t.Errorf("%s: the fetched trace's ops differ from the recording's", arrival.name)
		}
	}
}

// TestStatsReportsMappedBytes: /v1/stats reports the trace files the process
// has mapped, trace.MappedBytes — none once the one a test opened is closed.
func TestStatsReportsMappedBytes(t *testing.T) {
	data, err := trace.EncodeColumnar(storeTrace(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if trace.MappedBytes() == 0 {
		col.Close()
		t.Skip("this platform reads trace files instead of mapping them")
	}
	c := newTestServer(t, serve.Config{})
	if got := stats(t, c).TraceMappedBytes; got != trace.MappedBytes() {
		t.Errorf("trace_mapped_bytes = %d with a file open, want trace.MappedBytes() = %d", got, trace.MappedBytes())
	}
	col.Close()
	if got := stats(t, c).TraceMappedBytes; got != 0 {
		t.Errorf("trace_mapped_bytes = %d after Close, want 0", got)
	}
}

// TestStorePinnedColumnarSurvivesEviction pins the never-unmap-under-a-
// reader contract at the store layer: a pinned columnar trace evicted by
// budget pressure stays fully readable through its cursors until released.
func TestStorePinnedColumnarSurvivesEviction(t *testing.T) {
	tr := storeTrace(t, 0)
	data, err := trace.EncodeColumnar(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	s := serve.NewStore(int64(len(data))) // room for exactly one entry
	d, err := s.Put(col)
	if err != nil {
		t.Fatal(err)
	}
	src, release, err := s.Pin(d)
	if err != nil {
		t.Fatal(err)
	}
	// Overflow the budget: the pinned mapped entry must survive.
	if _, err := s.Put(storeTrace(t, 1).Columns()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatal("pinned columnar trace was evicted")
	}
	cur := src.CursorAt(0)
	n := 0
	for cur.Next() {
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("pinned columnar cursor failed: %v", err)
	}
	if n != src.ThreadOps(0) {
		t.Fatalf("pinned cursor produced %d ops, want %d", n, src.ThreadOps(0))
	}
	release()
}
