package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyWorkload mirrors the harness test workload: 16 cores, small input,
// fast enough to record and replay many times under -race.
func tinyWorkload() harness.Workload {
	return harness.Workload{N: 1 << 13, Seed: 7, Threads: 16, SP: 64 * units.KiB}
}

// newTestServer starts a serving stack on httptest and returns a client
// bound to it.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, &serve.Client{BaseURL: hs.URL, HTTP: hs.Client()}
}

// recordAndUpload records the tiny NMsort trace locally and uploads it.
func recordAndUpload(t *testing.T, c *serve.Client) serve.TraceInfo {
	t.Helper()
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// tinyJob is the golden job the determinism tests submit.
func tinyJob(digest string) serve.JobRequest {
	return serve.JobRequest{
		TraceDigest:  digest,
		Cores:        16,
		NearChannels: 16,
		SPMiB:        1,
	}
}

// TestUploadRoundTrip pins content addressing end to end: upload, fetch,
// re-digest — same bytes, same digest, and a second upload of the same
// trace does not grow the store.
func TestUploadRoundTrip(t *testing.T) {
	srv, c := newTestServer(t, serve.Config{})
	info := recordAndUpload(t, c)
	if srv.Store().Len() != 1 {
		t.Fatalf("store has %d traces, want 1", srv.Store().Len())
	}
	got, err := c.FetchTrace(context.Background(), info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := got.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%016x", d) != info.Digest {
		t.Fatalf("fetched trace digest %016x, uploaded %s", d, info.Digest)
	}
	recordAndUpload(t, c)
	if srv.Store().Len() != 1 {
		t.Fatalf("re-upload duplicated the trace: store has %d", srv.Store().Len())
	}
}

// TestJobCacheHit pins the result-cache contract: the second identical
// submission is answered from the cache (zero replay work — the hit
// counter moves, the replay is skipped) with byte-identical bytes.
func TestJobCacheHit(t *testing.T) {
	srv, c := newTestServer(t, serve.Config{})
	info := recordAndUpload(t, c)
	ctx := context.Background()

	cold, _, hit1, err := c.SubmitJob(ctx, tinyJob(info.Digest))
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first submission reported a cache hit")
	}
	warm, _, hit2, err := c.SubmitJob(ctx, tinyJob(info.Digest))
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second identical submission missed the cache")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit changed the response bytes:\ncold: %s\nwarm: %s", cold, warm)
	}
	if _, hits, _ := srv.Cache().Stats(); hits == 0 {
		t.Fatal("cache stats recorded no hit")
	}
}

// TestServerTimingHeader: an upload names its read and then its verify
// stage, or its resident stage when a compare with the image the store holds
// answered it; a job its gate wait and its replay; a recording its gate wait
// and its recording; a sweep its gate wait, RunSweep, and its recordings and
// cells summed by kind. Each travels in a Server-Timing header, and host time
// stays out of the body, so a repeat's bytes are still the first answer's.
func TestServerTimingHeader(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var v2, v3 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Trace.Columns().WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	post := func(path, contentType string, body []byte, timing string) []byte {
		t.Helper()
		resp, err := c.HTTP.Post(c.BaseURL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s (%v)", path, resp.StatusCode, out, err)
		}
		if got := resp.Header.Get("Server-Timing"); !regexp.MustCompile(timing).MatchString(got) {
			t.Errorf("POST %s: Server-Timing %q, want %s", path, got, timing)
		}
		return out
	}
	const verified, resident = `^read;dur=[0-9.]+, verify;dur=[0-9.]+$`, `^read;dur=[0-9.]+, resident;dur=[0-9.]+$`
	upload := post("/v1/traces", "application/octet-stream", v2.Bytes(), verified)
	if again := post("/v1/traces", "application/octet-stream", v2.Bytes(), verified); !bytes.Equal(upload, again) {
		t.Errorf("the v2 re-upload's body differs:\nfirst: %s\nagain: %s", upload, again)
	}
	if again := post("/v1/traces", "application/octet-stream", v3.Bytes(), resident); !bytes.Equal(upload, again) {
		t.Errorf("the resident v3 image's body differs:\nv2: %s\nv3: %s", upload, again)
	}
	var info serve.TraceInfo
	if err := json.Unmarshal(upload, &info); err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(tinyJob(info.Digest))
	if err != nil {
		t.Fatal(err)
	}
	const stages = `^queue;dur=[0-9.]+, replay;dur=[0-9.]+$`
	cold := post("/v1/jobs", "application/json", job, stages)
	if warm := post("/v1/jobs", "application/json", job, stages); !bytes.Equal(cold, warm) {
		t.Errorf("the cached job's body differs:\ncold: %s\nwarm: %s", cold, warm)
	}

	record, err := json.Marshal(serve.RecordRequest{Alg: "gnusort", N: 1 << 12, Seed: 7, Threads: 16, SPMiB: 1})
	if err != nil {
		t.Fatal(err)
	}
	const recorded = `^queue;dur=[0-9.]+, record;dur=[0-9.]+$`
	first := post("/v1/traces/record", "application/json", record, recorded)
	if again := post("/v1/traces/record", "application/json", record, recorded); !bytes.Equal(first, again) {
		t.Errorf("the repeated recording's body differs:\nfirst: %s\nagain: %s", first, again)
	}
	sweep, err := json.Marshal(serve.SweepRequest{Exp: "m2", N: 4096, Cores: 16, SPMiB: 1})
	if err != nil {
		t.Fatal(err)
	}
	const swept = `^queue;dur=[0-9.]+, sweep;dur=[0-9.]+, record;dur=[0-9.]+, cells;dur=[0-9.]+$`
	if a, b := post("/v1/sweeps", "application/json", sweep, swept), post("/v1/sweeps", "application/json", sweep, swept); !bytes.Equal(a, b) {
		t.Errorf("the repeated sweep's body differs:\nfirst: %s\nagain: %s", a, b)
	}
	// A row that records and replays: its first run's recordings and cells
	// (summed by kind, not one metric per label) took time.
	replayed, err := json.Marshal(serve.SweepRequest{Exp: "dma", N: 4096, Cores: 16, SPMiB: 1})
	if err != nil {
		t.Fatal(err)
	}
	const spent = `^queue;dur=[0-9.]+, sweep;dur=[0-9.]+, record;dur=[0-9.]*[1-9][0-9.]*, cells;dur=[0-9.]*[1-9][0-9.]*$`
	if a, b := post("/v1/sweeps", "application/json", replayed, spent), post("/v1/sweeps", "application/json", replayed, swept); !bytes.Equal(a, b) {
		t.Errorf("the repeated sweep's body differs:\nfirst: %s\nagain: %s", a, b)
	}
}

// TestJobMatchesDirectReplay is the cross-package cell-keying equality
// test: the server's response keys equal harness.ConfigDigest /
// trace.Digest computed directly, and the served result equals a direct
// supervised replay of the same cell.
func TestJobMatchesDirectReplay(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	ctx := context.Background()
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(ctx, rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	_, jr, _, err := c.SubmitJob(ctx, tinyJob(info.Digest))
	if err != nil {
		t.Fatal(err)
	}

	cfg := harness.NodeFor(16, 16, 1*units.MiB)
	sup := &harness.Supervisor{}
	key, out, _, err := sup.ReplayCell(cfg, rec.Trace, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", harness.ConfigDigest(cfg, 0, 0)); jr.ConfigKey != want {
		t.Fatalf("served config key %s, local ConfigDigest %s", jr.ConfigKey, want)
	}
	if want := fmt.Sprintf("%016x", key.Trace); jr.TraceKey != want {
		t.Fatalf("served trace key %s, local %s", jr.TraceKey, want)
	}
	if jr.Result.SimTime != out.Result.SimTime ||
		jr.Result.FarAccesses != out.Result.FarAccesses ||
		jr.Result.NearAccesses != out.Result.NearAccesses {
		t.Fatalf("served result %+v differs from direct replay %+v", jr.Result, out.Result)
	}
}

// TestConcurrentClientsDeterministic is the serving determinism test: N
// concurrent clients submit a mix of identical and differing jobs; every
// response for the same cell is byte-identical, cold or cached, in any
// completion order.
func TestConcurrentClientsDeterministic(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 4, Queue: 64})
	info := recordAndUpload(t, c)
	ctx := context.Background()

	channels := []int{8, 16, 32}
	const perChannel = 4
	got := make([][]byte, len(channels)*perChannel)
	var wg sync.WaitGroup
	for ci, ch := range channels {
		for k := 0; k < perChannel; k++ {
			wg.Add(1)
			go func(slot, ch int) {
				defer wg.Done()
				req := tinyJob(info.Digest)
				req.NearChannels = ch
				raw, _, _, err := c.SubmitJob(ctx, req)
				if err != nil {
					t.Errorf("job ch=%d: %v", ch, err)
					return
				}
				got[slot] = raw
			}(ci*perChannel+k, ch)
		}
	}
	wg.Wait()
	for ci := range channels {
		base := got[ci*perChannel]
		for k := 1; k < perChannel; k++ {
			if !bytes.Equal(base, got[ci*perChannel+k]) {
				t.Fatalf("channel %d: response %d differs from response 0:\n%s\nvs\n%s",
					channels[ci], k, got[ci*perChannel+k], base)
			}
		}
	}
	// Differing configs must differ (they key different cells).
	if bytes.Equal(got[0], got[perChannel]) {
		t.Fatal("2X and 4X jobs returned identical bodies")
	}
}

// TestSweepMatchesDirectHarness pins the sweep endpoint against the same
// experiment run directly through the registry: same bytes, which is the
// cmd/sweep client-parity contract (the CI smoke script checks the
// process-level half with cmp).
func TestSweepMatchesDirectHarness(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	ctx := context.Background()
	req := serve.SweepRequest{
		Exp: "dma", N: 1 << 13, Seed: 7, Cores: 16, SPMiB: 1,
	}
	body, failed, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("sweep reported %d failed cells", failed)
	}

	wl := harness.Workload{
		N: 1 << 13, Seed: 7, Threads: 16, SP: 1 * units.MiB,
		Sup: &harness.Supervisor{},
	}
	e, ok := harness.FindExperiment("dma")
	if !ok {
		t.Fatal("dma experiment missing from registry")
	}
	sw, err := e.Run(harness.ExperimentParams{}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if want := sw.String(); string(body) != want {
		t.Fatalf("served sweep differs from direct harness run:\n--- served\n%s\n--- direct\n%s", body, want)
	}
}

// TestSweepTable1IsARegistryRow: Table I is served through the same registry
// lookup as every sweep — its dma, dist and fault_rate fields arrive as
// ExperimentParams — and the bytes are Table1Faults' own, as text and as CSV.
// An unknown name is refused with the registry's names, table1 among them,
// and GET /v1/experiments is the registry and nothing appended.
func TestSweepTable1IsARegistryRow(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	ctx := context.Background()
	wl := harness.Workload{N: 1 << 12, Seed: 7, Threads: 8, SP: 1 * units.MiB, Dist: workload.Zipf, Sup: &harness.Supervisor{}}
	want, err := harness.Table1Faults(wl, true, fault.Profile(41, 2e-2))
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []report.Format{report.Text, report.CSV} {
		var direct strings.Builder
		if err := harness.Render(&direct, want, format); err != nil {
			t.Fatal(err)
		}
		body, failed, err := c.Sweep(ctx, serve.SweepRequest{
			Exp: "table1", N: 1 << 12, Seed: 7, Cores: 8, SPMiB: 1, Format: string(format),
			DMA: true, Dist: "zipf", FaultSeed: 41, FaultRate: 2e-2,
		})
		if err != nil || failed != want.Failed() {
			t.Fatalf("%s: failed=%d err=%v", format, failed, err)
		}
		if string(body) != direct.String() {
			t.Fatalf("%s: served Table I differs from the direct run:\n--- served\n%s\n--- direct\n%s", format, body, direct.String())
		}
	}

	status, msg := postRaw(t, c, "/v1/sweeps", `{"exp":"table2"}`)
	if status != http.StatusBadRequest || !strings.Contains(string(msg), strings.Join(harness.ExperimentNames(), ", ")) {
		t.Fatalf("unknown experiment: status %d: %s", status, msg)
	}

	resp, err := c.HTTP.Get(c.BaseURL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(harness.Experiments) {
		t.Fatalf("%d experiments listed, the registry has %d", len(infos), len(harness.Experiments))
	}
	for i, e := range harness.Experiments {
		if infos[i] != (serve.ExperimentInfo{Name: e.Name, Desc: e.Desc, Paper: e.Paper}) {
			t.Errorf("entry %d: %+v, the registry has %q", i, infos[i], e.Name)
		}
	}
	if last := infos[len(infos)-1].Name; last != "table1" {
		t.Errorf("the list ends in %q; clients of the old daemon found table1 there", last)
	}
}

// TestSweepRefusesASizeTheRowCannotUse: a paper row whose size axis cannot
// take the request's n is refused with 422 and the row's reason, before any
// recording (the store stays empty), and the daemon serves on — the row's
// recordings then reach the store.
func TestSweepRefusesASizeTheRowCannotUse(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	status, msg := postRaw(t, c, "/v1/sweeps", `{"exp":"pem","n":16,"cores":16,"sp_mib":1}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "n = 16 must be in [64, 262144]") {
		t.Fatalf("pem at n=16: status %d: %s", status, msg)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.SweepsDone != 0 {
		t.Fatalf("a refused sweep left %d recordings and %d sweeps done", st.Records, st.SweepsDone)
	}
	if _, _, err := c.Sweep(context.Background(), serve.SweepRequest{Exp: "pem", N: 64, Cores: 16, SPMiB: 1}); err != nil {
		t.Fatalf("pem at n=64 after the refusal: %v", err)
	}
	// Its three recordings live in the store, like every row's.
	if st, err := c.Stats(context.Background()); err != nil || st.Records != 3 || st.Traces != 3 {
		t.Fatalf("after the pem row: %+v (err %v), want its 3 recordings in 3 traces", st, err)
	}
}

// TestSweepRefusesOutOfRangeFields: a sweep field out of its range is refused
// with a 400 naming the field, before the gate and before any recording — the
// rules cmd/sweep and cmd/nmsim apply to their flags, through the same
// SweepRequest.Validate. Each refusal is the same bytes twice, and the daemon
// serves on.
func TestSweepRefusesOutOfRangeFields(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	const wl = `"n":4096,"cores":8,"sp_mib":1`
	for _, tc := range []struct{ body, field string }{
		{`{"exp":"cores",` + wl + `,"core_list":[6]}`, "core_list (-corelist)"},
		{`{"exp":"cores",` + wl + `,"core_list":[0]}`, "core_list (-corelist)"},
		{`{"exp":"table1",` + wl + `,"fault_rate":2}`, "fault_rate (-fault-rate)"},
		{`{"exp":"table1",` + wl + `,"fault_rate":-1}`, "fault_rate (-fault-rate)"},
		{`{"exp":"faults",` + wl + `,"fault_rates":[7]}`, "fault_rates (-fault-rates)"},
		{`{"exp":"bandwidth",` + wl + `,"par":-3}`, "par (-par)"},
		{`{"exp":"bandwidth",` + wl + `,"retries":-3}`, "retries (-retries)"},
		{`{"exp":"timeline",` + wl + `,"epoch_ps":-5}`, "epoch_ps (-epoch)"},
	} {
		status, msg := postRaw(t, c, "/v1/sweeps", tc.body)
		if status != http.StatusBadRequest || !strings.Contains(string(msg), tc.field) {
			t.Errorf("%s: status %d: %s, want 400 naming %s", tc.body, status, msg, tc.field)
		}
		if _, again := postRaw(t, c, "/v1/sweeps", tc.body); !bytes.Equal(again, msg) {
			t.Errorf("%s: refused twice with different bodies:\n%s%s", tc.body, msg, again)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.SweepsDone != 0 {
		t.Fatalf("refused sweeps left %d recordings and %d sweeps done", st.Records, st.SweepsDone)
	}
	if _, failed, err := c.Sweep(context.Background(), serve.SweepRequest{Exp: "dma", N: 4096, Cores: 8, SPMiB: 1}); err != nil || failed != 0 {
		t.Fatalf("a valid sweep after the refusals: failed=%d err=%v", failed, err)
	}
}

// TestRecordRefusalIsStable: a record request is refused the same bytes every
// time. A field out of range, or an algorithm outside the harness's one program
// table, is a 400 before the gate; a workload its program cannot run — k-means
// points that do not fit the scratchpad, a PEM sort without a key per thread
// or without room for its copy — is the program's 422, never a dropped
// connection. The refusals record nothing, and the daemon serves on.
func TestRecordRefusalIsStable(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	for _, tc := range []struct {
		body   string
		status int
		says   string
	}{
		{`{"alg":"nmsort","n":4096,"seed":7,"threads":6,"sp_mib":1}`, http.StatusBadRequest, "threads (-cores) 6"},
		{`{"alg":"bogus","n":4096,"threads":16,"sp_mib":1}`, http.StatusBadRequest, `unknown algorithm \"bogus\" (want one of: gnusort, `},
		{`{"alg":"kmeans-sp","n":65536,"threads":16,"sp_mib":1}`, http.StatusUnprocessableEntity, "kmeans-sp cannot pin n = 65536 points"},
		{`{"alg":"pem","n":65537,"threads":16,"sp_mib":1}`, http.StatusUnprocessableEntity, "pem cannot hold n = 65537 keys"},
		{`{"alg":"pem","n":8,"threads":16,"sp_mib":1}`, http.StatusUnprocessableEntity, "pem needs a key per thread (n = 8, threads 16)"},
	} {
		status, first := postRaw(t, c, "/v1/traces/record", tc.body)
		if status != tc.status || !strings.Contains(string(first), tc.says) {
			t.Errorf("%s: status %d: %s, want %d saying %s", tc.body, status, first, tc.status, tc.says)
		}
		if _, second := postRaw(t, c, "/v1/traces/record", tc.body); !bytes.Equal(first, second) {
			t.Errorf("%s: refused twice with different bodies:\n%s%s", tc.body, first, second)
		}
	}
	ctx := context.Background()
	if st, err := c.Stats(ctx); err != nil || st.Records != 0 || st.JobsDone != 0 {
		t.Errorf("the refusals left %+v (err %v), want no recording and no job done", st, err)
	}
	for _, alg := range []string{"kmeans-sp", "pem"} {
		if _, err := c.Record(ctx, serve.RecordRequest{Alg: alg, N: 4096, Seed: 7, Threads: 16, SPMiB: 1}); err != nil {
			t.Errorf("%s after the refusals: %v", alg, err)
		}
	}
}

// TestRecordEndpointMemoized pins record-once: two identical record
// requests return the same digest and the second is served from the trace
// store (the record count stays 1).
func TestRecordEndpointMemoized(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	ctx := context.Background()
	req := serve.RecordRequest{Alg: "nmsort", N: 1 << 13, Seed: 7, Threads: 16, SPMiB: 1}
	// SPMiB 1 differs from tinyWorkload's 64 KiB — independent cell.
	a, err := c.Record(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Record(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("repeat record changed the digest: %s vs %s", a.Digest, b.Digest)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Traces != 1 {
		t.Fatalf("the store holds %d recordings in %d traces, want 1 and 1", st.Records, st.Traces)
	}
}

// TestConcurrentJobsCacheHeaderMatchesStats: identical cold jobs racing on
// one cell each say in X-Nmsimd-Cache what the result cache counted for
// them — the header comes from the lookup that counts, so however the race
// goes the hit headers equal the cache_hits delta.
func TestConcurrentJobsCacheHeaderMatchesStats(t *testing.T) {
	const jobs = 8
	_, c := newTestServer(t, serve.Config{Workers: jobs, Queue: jobs})
	info := recordAndUpload(t, c)
	ctx := context.Background()
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]bool, jobs)
	var wg sync.WaitGroup
	for i := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if _, _, hits[i], err = c.SubmitJob(ctx, tinyJob(info.Digest)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	headers := 0
	for _, h := range hits {
		if h {
			headers++
		}
	}
	if got := after.CacheHits - before.CacheHits; got != uint64(headers) {
		t.Errorf("%d responses said hit, the cache counted %d hits", headers, got)
	}
	if got := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses; got != jobs {
		t.Errorf("the cache counted %d lookups for %d jobs", got, jobs)
	}
}

// TestSweepRecordingsLiveInTheStore: the trace store is the daemon's only
// record cache. Sweeps whose recordings outgrow a small budget leave the
// store within it with nothing pinned, every recording /v1/stats counts is
// resident, and a sweep whose recordings were evicted records them again and
// renders the bytes it rendered the first time.
func TestSweepRecordingsLiveInTheStore(t *testing.T) {
	ctx := context.Background()
	wl := func(seed uint64) harness.Workload {
		return harness.Workload{N: 1 << 12, Seed: seed, Threads: 8, SP: 1 * units.MiB}
	}
	algs := []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort}
	var budget int64 // one sweep's two recordings and a quarter
	for _, alg := range algs {
		res, err := harness.Record(alg, wl(1))
		if err != nil {
			t.Fatal(err)
		}
		budget += res.Trace.Columns().Size() * 5 / 4
	}
	srv, c := newTestServer(t, serve.Config{StoreBytes: budget})
	sweep := func(seed uint64) string {
		body, failed, err := c.Sweep(ctx, serve.SweepRequest{Exp: "bandwidth", N: 1 << 12, Seed: seed, Cores: 8, SPMiB: 1})
		if err != nil || failed != 0 {
			t.Fatalf("seed %d: failed=%d err=%v", seed, failed, err)
		}
		return string(body)
	}
	seeds := []uint64{1, 2, 3, 4}
	first := make(map[uint64]string)
	for _, seed := range seeds {
		first[seed] = sweep(seed)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceBytes <= 0 || st.TraceBytes > budget {
		t.Errorf("the store holds %d trace bytes, want some and at most the %d-byte budget", st.TraceBytes, budget)
	}
	resident := func(seed uint64) int {
		n := 0
		for _, alg := range algs {
			if _, ok := srv.Store().LookupRecord(alg, harness.RecordKey(wl(seed))); ok {
				n++
			}
		}
		return n
	}
	total, evicted := 0, uint64(0)
	for _, seed := range seeds {
		n := resident(seed)
		total += n
		if n == 0 && evicted == 0 {
			evicted = seed
		}
	}
	if total == 0 || st.Records != total || st.Traces < total {
		t.Errorf("/v1/stats: %d records in %d traces; %d recordings are resident", st.Records, st.Traces, total)
	}
	if evicted == 0 {
		t.Fatalf("no sweep's recordings were evicted from a %d-byte store", budget)
	}
	if got := sweep(evicted); got != first[evicted] {
		t.Errorf("seed %d re-recorded after eviction renders differently:\n%s\nwant:\n%s", evicted, got, first[evicted])
	}
	if resident(evicted) == 0 {
		t.Errorf("seed %d: the repeated sweep left none of its recordings in the store", evicted)
	}
}

// TestStreamJob checks the NDJSON path: sample lines, phase rows, and a
// final result object whose sim time equals the plain job's.
func TestStreamJob(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	info := recordAndUpload(t, c)
	ctx := context.Background()

	_, plain, _, err := c.SubmitJob(ctx, tinyJob(info.Digest))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	req := tinyJob(info.Digest)
	req.EpochPS = int64(10 * units.Microsecond)
	if err := c.StreamJob(ctx, req, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"type":"sample"`) {
		t.Fatalf("stream carried no samples:\n%s", out)
	}
	if !strings.Contains(out, `"type":"phase"`) {
		t.Fatalf("stream carried no phase rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"type":"result"`) {
		t.Fatalf("stream did not end with a result line: %s", last)
	}
	if want := fmt.Sprintf(`"SimTime":%d`, plain.Result.SimTime); !strings.Contains(last, want) {
		t.Fatalf("streamed result sim time differs from plain job:\n%s\nwant %s", last, want)
	}
}

// TestJobValidation checks malformed jobs are refused up front with 400s.
func TestJobValidation(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	info := recordAndUpload(t, c)
	ctx := context.Background()
	bad := []serve.JobRequest{
		{TraceDigest: info.Digest, Cores: 10, NearChannels: 16, SPMiB: 1}, // cores not multiple of 4
		{TraceDigest: info.Digest, Cores: 16, NearChannels: 0, SPMiB: 1},  // no channels
		{TraceDigest: info.Digest, Cores: 16, NearChannels: 16, SPMiB: 0}, // no scratchpad
		{TraceDigest: info.Digest, Cores: 16, NearChannels: 16, SPMiB: 1, FaultRate: 2},
		{TraceDigest: "zz", Cores: 16, NearChannels: 16, SPMiB: 1}, // bad digest
	}
	for i, req := range bad {
		if _, _, _, err := c.SubmitJob(ctx, req); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	// A rule shared with sweeps has one wording.
	_, _, _, jobErr := c.SubmitJob(ctx, bad[0])
	_, _, sweepErr := c.Sweep(ctx, serve.SweepRequest{Exp: "dma", Cores: 10})
	const rule = "cores (-cores) 10 must be a positive multiple of 4"
	if jobErr == nil || sweepErr == nil || !strings.Contains(jobErr.Error(), rule) || !strings.Contains(sweepErr.Error(), rule) {
		t.Errorf("job refusal %v and sweep refusal %v, want both to say %q", jobErr, sweepErr, rule)
	}
	// Unknown digest: 404, not 400.
	miss := tinyJob("0000000000000001")
	if _, _, _, err := c.SubmitJob(ctx, miss); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown digest error = %v, want 404", err)
	}
}

// postRaw posts a hand-written JSON body — what a client built against an
// older wire format sends — and returns the status and response body.
func postRaw(t *testing.T, c *serve.Client, path, body string) (int, []byte) {
	t.Helper()
	resp, err := c.HTTP.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading response: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestLegacyShardsFieldIgnored is the wire-compatibility edge of removing
// the sharded engine: job and sweep bodies that still carry "shards" are
// accepted and answered byte-identically (config_key included) to the same
// request without it. Sharding was byte-neutral, so ignoring the key is
// the compatible behaviour.
func TestLegacyShardsFieldIgnored(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	info := recordAndUpload(t, c)
	job := fmt.Sprintf(`{"trace_digest":%q,"cores":16,"near_channels":16,"sp_mib":1`, info.Digest)
	sweep := `{"exp":"dma","n":8192,"seed":7,"cores":16,"sp_mib":1`
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", job},
		{"/v1/sweeps", sweep},
	} {
		status, want := postRaw(t, c, tc.path, tc.body+"}")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, status, want)
		}
		status, got := postRaw(t, c, tc.path, tc.body+`,"shards":4}`)
		if status != http.StatusOK {
			t.Fatalf("%s with shards: status %d: %s", tc.path, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body with \"shards\": 4 differs:\n%s\nwant:\n%s", tc.path, got, want)
		}
	}
}

// TestOversizedJSONBodyRejected: a JSON body past the 1 MiB cap is refused
// with a 4xx on every JSON endpoint, and the daemon keeps serving.
func TestOversizedJSONBodyRejected(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	huge := `{"label":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/sweeps", "/v1/traces/record"} {
		status, body := postRaw(t, c, path, huge)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got status %d (%.80s), want 413", path, status, body)
		}
	}
	info := recordAndUpload(t, c)
	if _, _, _, err := c.SubmitJob(context.Background(), tinyJob(info.Digest)); err != nil {
		t.Fatalf("job after oversized bodies: %v", err)
	}
}

// TestOversizedTraceUploadRejected: a trace body one byte past
// MaxUploadBytes is 413 like the JSON endpoints' oversized bodies, not the
// 400 of a malformed one; a body that fits is accepted.
func TestOversizedTraceUploadRejected(t *testing.T) {
	rec, err := harness.Record(harness.AlgNMSort, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := rec.Trace.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	_, tight := newTestServer(t, serve.Config{MaxUploadBytes: int64(v2.Len()) - 1})
	_, err = tight.UploadTraceBytes(context.Background(), v2.Bytes())
	if err == nil || !strings.Contains(err.Error(), "413") || !strings.Contains(err.Error(), "serve: reading trace") {
		t.Errorf("upload one byte over the cap: %v, want a 413 naming the read", err)
	}
	_, exact := newTestServer(t, serve.Config{MaxUploadBytes: int64(v2.Len())})
	if _, err := exact.UploadTraceBytes(context.Background(), v2.Bytes()); err != nil {
		t.Errorf("upload exactly at the cap: %v", err)
	}
	if _, err := exact.UploadTraceBytes(context.Background(), []byte("NMTR garbage")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("malformed upload: %v, want 400", err)
	}
}
