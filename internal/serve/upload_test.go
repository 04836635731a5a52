package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/units"
)

// referenceUpload is the upload handler as it was before the resident
// compare: the whole body through io.ReadAll, then Verify (v3) or ReadTrace
// (v2), Validate and Put — every upload walked. The resident path is held to
// its answers.
func (s *Server) referenceUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, fmt.Errorf("serve: reading trace: %w", err), status)
		return
	}
	var col *trace.Columnar
	if trace.IsColumnar(body) {
		if col, err = trace.OpenBytes(body); err == nil {
			err = col.Verify()
		}
	} else {
		var tr *trace.Trace
		if tr, err = trace.ReadTrace(bytes.NewReader(body)); err == nil {
			col = tr.Columns()
		}
	}
	var invalid error
	if err == nil {
		invalid = col.Validate()
	}
	if err != nil {
		fail(w, fmt.Errorf("serve: reading trace: %w", err), http.StatusBadRequest)
		return
	}
	if invalid != nil {
		fail(w, fmt.Errorf("serve: invalid trace: %w", invalid), http.StatusBadRequest)
		return
	}
	d, err := s.store.Put(col)
	if errors.Is(err, ErrTraceTooLarge) {
		storeFull(w, err)
		return
	}
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, traceInfo(d, col))
}

// uploadRig is one daemon on httptest: the real handlers, or (reference)
// the same daemon with referenceUpload behind POST /v1/traces.
type uploadRig struct {
	srv *Server
	url string
}

func newUploadRig(t *testing.T, cfg Config, reference bool) uploadRig {
	t.Helper()
	srv := New(cfg)
	h := srv.Handler()
	if reference {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
				srv.referenceUpload(w, r)
				return
			}
			srv.Handler().ServeHTTP(w, r)
		})
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return uploadRig{srv: srv, url: hs.URL}
}

// uploadAnswer is everything an upload is held to: the response, the
// daemon's counters after it, and the store's recency, front first.
type uploadAnswer struct {
	status  int
	body    string
	stats   Stats
	recency []uint64
}

// post sends one request and returns its status, body and Server-Timing. A
// chunked request hides the body's length from the client, which then sends
// it with no Content-Length.
func (g uploadRig) post(t *testing.T, path string, body []byte, chunked bool) (int, []byte, string) {
	t.Helper()
	var r io.Reader = bytes.NewReader(body)
	if chunked {
		r = struct{ io.Reader }{r}
	}
	resp, err := http.Post(g.url+path, "application/octet-stream", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header.Get("Server-Timing")
}

// fetch returns the v3 image the daemon serves for digest.
func (g uploadRig) fetch(t *testing.T, digest uint64) []byte {
	t.Helper()
	resp, err := http.Get(g.url + "/v1/traces/" + digestString(digest))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: %d (%v)", resp.StatusCode, err)
	}
	return out
}

// answer is the state after a response: /v1/stats and the recency list.
func (g uploadRig) answer(t *testing.T, status int, body []byte) uploadAnswer {
	t.Helper()
	resp, err := http.Get(g.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := uploadAnswer{status: status, body: string(body)}
	if err := json.NewDecoder(resp.Body).Decode(&a.stats); err != nil {
		t.Fatal(err)
	}
	g.srv.store.mu.Lock()
	for el := g.srv.store.order.Front(); el != nil; el = el.Next() {
		a.recency = append(a.recency, el.Value.(uint64))
	}
	g.srv.store.mu.Unlock()
	return a
}

// uploadStage reads which check answered an upload from its Server-Timing.
// paperL1 is the paper's per-core 16KB 2-way data cache.
var paperL1 = trace.L1Geometry{Capacity: 16 * units.KiB, LineSize: 64, Ways: 2}

var uploadStage = regexp.MustCompile(`^read;dur=[0-9.]+, (verify|resident);dur=[0-9.]+$`)

// image is the v3 bytes of a recording's sealed columns.
func image(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := tr.Columns().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// edit returns a copy of img changed by f, with the footer's own checksum
// recomputed when reseal is set — so the copy still opens, and only Verify
// or the compare can tell.
func edit(img []byte, reseal bool, f func(b []byte)) []byte {
	b := bytes.Clone(img)
	f(b)
	if reseal {
		ftr := b[len(b)-64:]
		binary.LittleEndian.PutUint64(ftr[48:], crc64.Checksum(ftr[:48], crc64.MakeTable(crc64.ECMA)))
	}
	return b
}

// farWalk is the image of a one-thread recording of n far loads a page apart
// and one more load last pages past them: images of one n and different lasts
// are equally long and differ only near their ends.
func farWalk(t *testing.T, n, last int) []byte {
	t.Helper()
	rec := trace.NewRecorder(1, paperL1, trace.DefaultCosts())
	tp := rec.Thread(0)
	for i := 0; i < n; i++ {
		tp.Load(addr.FarBase+addr.Addr(i)*4096, 8)
	}
	tp.Load(addr.FarBase+addr.Addr(n+last)*4096, 8)
	tp.Barrier()
	return image(t, rec.Finish(nil))
}

// TestUploadAnsweredByResidentImage: an upload the store already holds, byte
// for byte, is answered from the store, compared as it streams and never
// buffered; everything else is verified as before. Each case runs its setup
// and then its probe upload on two daemons, one with the resident compare and
// one with referenceUpload, and the probe's status, body, /v1/stats and store
// recency must agree. A case named "chunked …" sends its probe with no
// Content-Length, which the compare needs.
func TestUploadAnsweredByResidentImage(t *testing.T) {
	wl := harness.Workload{N: 1 << 13, Seed: 7, Threads: 16, SP: units.MiB}
	recA, err := harness.Record(harness.AlgNMSort, wl)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := harness.Record(harness.AlgGNUSort, wl)
	if err != nil {
		t.Fatal(err)
	}
	a, b := image(t, recA.Trace), image(t, recB.Trace)
	var v2 bytes.Buffer
	if _, err := recA.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	digestA, err := recA.Trace.Digest()
	if err != nil {
		t.Fatal(err)
	}
	ftr := len(a) - 64
	lateA, lateB, lateC := farWalk(t, 5<<14, 1), farWalk(t, 5<<14, 2), farWalk(t, 5<<14, 3)
	if len(lateA) != len(lateB) || len(lateA) != len(lateC) || len(lateA) < 2*compareChunk {
		t.Fatalf("the late twins are %d, %d and %d bytes: want one length past two chunks", len(lateA), len(lateB), len(lateC))
	}
	if last := len(lateA) - compareChunk; bytes.Equal(lateA, lateB) || !bytes.Equal(lateA[:last], lateB[:last]) {
		t.Fatal("the late twins must differ, and only in their last chunk")
	}
	column := recA.Trace.Columns().Sections()[0].Offset // the first op byte of thread 0
	record, err := json.Marshal(RecordRequest{Alg: "nmsort", N: wl.N, Seed: wl.Seed, Threads: wl.Threads, SPMiB: 1})
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		path string
		body []byte
	}
	upload := func(body []byte) step { return step{"/v1/traces", body} }
	cases := []struct {
		name   string
		budget int64 // store budget; 0 = the default
		setup  []step
		probe  []byte // nil: the image of recA the daemon serves after setup
		stage  string
		status int
	}{
		{"identical v3 re-upload", 0, []step{upload(a), upload(b)}, a, "resident", http.StatusOK},
		{"payload byte flipped", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[column] ^= 1 }), "verify", http.StatusBadRequest},
		{"footer digest byte flipped", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[ftr+32] ^= 1 }), "verify", http.StatusBadRequest},
		{"footer digest byte flipped, footer resealed", 0, []step{upload(a), upload(b)},
			edit(a, true, func(x []byte) { x[ftr+32] ^= 1 }), "verify", http.StatusBadRequest},
		{"footer payload CRC byte flipped, footer resealed", 0, []step{upload(a), upload(b)},
			edit(a, true, func(x []byte) { x[ftr+40] ^= 1 }), "verify", http.StatusBadRequest},
		{"footer checksum byte flipped", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[ftr+48] ^= 1 }), "verify", http.StatusBadRequest},
		{"another trace under a resident digest", 0, []step{upload(a), upload(b)},
			edit(b, true, func(x []byte) { binary.LittleEndian.PutUint64(x[len(x)-64+32:], digestA) }),
			"verify", http.StatusBadRequest},
		{"image of a resident recording", 0, []step{{"/v1/traces/record", record}, upload(b)}, a, "resident", http.StatusOK},
		{"v3 conversion of a resident v2 upload", 0, []step{upload(v2.Bytes()), upload(b)}, a, "resident", http.StatusOK},
		{"fetched image of a resident recording", 0, []step{{"/v1/traces/record", record}, upload(b)}, nil, "resident", http.StatusOK},
		{"fetched image of a resident v2 upload", 0, []step{upload(v2.Bytes()), upload(b)}, nil, "resident", http.StatusOK},
		{"v2 re-upload", 0, []step{upload(v2.Bytes()), upload(b)}, v2.Bytes(), "verify", http.StatusOK},
		{"re-upload after eviction", int64(len(a) + len(b) - 1), []step{upload(a), upload(b)}, a, "verify", http.StatusOK},
		{"chunked v3 re-upload", 0, []step{upload(a), upload(b)}, a, "verify", http.StatusOK},
		{"one byte shorter than a resident image", 0, []step{upload(a), upload(b)}, a[:len(a)-1], "verify", http.StatusBadRequest},
		{"one byte longer than a resident image", 0, []step{upload(a), upload(b)}, append(bytes.Clone(a), 0), "verify", http.StatusBadRequest},
		{"first byte differs", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[0] ^= 1 }), "verify", http.StatusBadRequest},
		{"middle byte differs", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[len(x)/2] ^= 1 }), "verify", http.StatusBadRequest},
		{"last byte differs", 0, []step{upload(a), upload(b)},
			edit(a, false, func(x []byte) { x[len(x)-1] ^= 1 }), "verify", http.StatusBadRequest},
		{"equal-length resident images differing late", 0, []step{upload(lateA), upload(lateB), upload(b)}, lateA, "resident", http.StatusOK},
		{"equal-length resident images differing late, the other", 0, []step{upload(lateA), upload(lateB), upload(b)}, lateB, "resident", http.StatusOK},
		{"equal-length resident images differing late, neither", 0, []step{upload(lateA), upload(lateB), upload(b)}, lateC, "verify", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answers [2]uploadAnswer
			for i, reference := range []bool{false, true} {
				g := newUploadRig(t, Config{StoreBytes: tc.budget}, reference)
				for _, s := range tc.setup {
					if status, out, _ := g.post(t, s.path, s.body, false); status != http.StatusOK {
						t.Fatalf("setup POST %s: %d %s", s.path, status, out)
					}
				}
				probe := tc.probe
				if probe == nil {
					if probe = g.fetch(t, digestA); !bytes.Equal(probe, a) {
						t.Fatalf("fetched %d bytes, not the %d-byte image", len(probe), len(a))
					}
				}
				status, out, timing := g.post(t, "/v1/traces", probe, strings.HasPrefix(tc.name, "chunked"))
				if !reference {
					m := uploadStage.FindStringSubmatch(timing)
					if m == nil || m[1] != tc.stage {
						t.Errorf("Server-Timing %q, want the %s stage", timing, tc.stage)
					}
				}
				answers[i] = g.answer(t, status, out)
			}
			got, want := answers[0], answers[1]
			if got.status != tc.status {
				t.Errorf("status %d, want %d: %s", got.status, tc.status, got.body)
			}
			if got.status != want.status || got.body != want.body {
				t.Errorf("answer %d %q, the verify-only daemon's %d %q", got.status, got.body, want.status, want.body)
			}
			if got.stats != want.stats {
				t.Errorf("stats %+v, the verify-only daemon's %+v", got.stats, want.stats)
			}
			if fmt.Sprint(got.recency) != fmt.Sprint(want.recency) {
				t.Errorf("recency %x, the verify-only daemon's %x", got.recency, want.recency)
			}
		})
	}
}

// TestResidentReUploadIsNotBuffered: re-uploading a resident image costs the
// daemon a fixed compare buffer, not a copy of the body — each re-upload adds
// less than a quarter of the image to TotalAlloc, client side included —
// whether the entry is an upload, whose image is one buffer, or a recording
// the daemon made, whose image is its sealed segments.
func TestResidentReUploadIsNotBuffered(t *testing.T) {
	wl := harness.Workload{N: 1 << 16, Seed: 7, Threads: 16, SP: units.MiB}
	rec, err := harness.Record(harness.AlgNMSort, wl)
	if err != nil {
		t.Fatal(err)
	}
	a := image(t, rec.Trace)
	record, err := json.Marshal(RecordRequest{Alg: "nmsort", N: wl.N, Seed: wl.Seed, Threads: wl.Threads, SPMiB: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, resident := range []struct {
		name, path string
		body       []byte
	}{
		{"uploaded", "/v1/traces", a},
		{"recorded", "/v1/traces/record", record},
	} {
		g := newUploadRig(t, Config{}, false)
		if status, out, _ := g.post(t, resident.path, resident.body, false); status != http.StatusOK {
			t.Fatalf("%s: first request: %d %s", resident.name, status, out)
		}
		const reUploads = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reUploads {
			if status, out, timing := g.post(t, "/v1/traces", a, false); status != http.StatusOK || !strings.Contains(timing, "resident") {
				t.Fatalf("%s: re-upload: %d %s, Server-Timing %q", resident.name, status, out, timing)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reUploads; per >= uint64(len(a))/4 {
			t.Errorf("%s: each re-upload of a %d-byte resident image allocated %d bytes, want under a quarter of it", resident.name, len(a), per)
		} else {
			t.Logf("%s: each re-upload of a %d-byte resident image allocated %d bytes", resident.name, len(a), per)
		}
	}
}

// TestConcurrentReUploads: re-uploads of three equal-length images, racing
// one another and the evictions their own Puts cause in a store with room
// for two, each get the answer a lone upload of that image gets, whether the
// compare or Verify gave it.
func TestConcurrentReUploads(t *testing.T) {
	images := [][]byte{farWalk(t, 1<<14, 1), farWalk(t, 1<<14, 2), farWalk(t, 1<<14, 3)}
	g := newUploadRig(t, Config{StoreBytes: int64(2 * len(images[0]))}, false)
	want := make([]string, len(images))
	for i, img := range images {
		status, out, _ := g.post(t, "/v1/traces", img, false)
		if status != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, status, out)
		}
		want[i] = string(out)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 6 {
				i := (w + k) % len(images)
				resp, err := http.Post(g.url+"/v1/traces", "application/octet-stream", bytes.NewReader(images[i]))
				if err != nil {
					t.Error(err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || string(out) != want[i] {
					t.Errorf("re-upload of image %d: %d %q (%v), alone %q", i, resp.StatusCode, out, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestUploadLengthIsOnlyAHint: a client that claims a 1 GiB body, sends
// 1 KiB and hangs up gets the verify-only daemon's answer, and the claim
// does not make the daemon allocate it.
func TestUploadLengthIsOnlyAHint(t *testing.T) {
	send := func(g uploadRig) (int, string, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", g.url[len("http://"):])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: nmsimd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", 1<<30)
		conn.Write(bytes.Repeat([]byte{0x5a}, 1<<10))
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return resp.StatusCode, string(out), after.TotalAlloc - before.TotalAlloc
	}
	status, body, alloc := send(newUploadRig(t, Config{}, false))
	wantStatus, wantBody, _ := send(newUploadRig(t, Config{}, true))
	if status != wantStatus || body != wantBody {
		t.Errorf("answer %d %q, the verify-only daemon's %d %q", status, body, wantStatus, wantBody)
	}
	if alloc >= 64<<20 {
		t.Errorf("a 1 GiB claim backed by 1 KiB allocated %d MiB", alloc>>20)
	}
}
