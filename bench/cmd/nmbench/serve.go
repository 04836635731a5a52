package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/internal/stat"
)

// The serve-mix traffic: a quarter of the requests are jobs the daemon has
// never seen (a unique retry_seed is folded into the cell key and is inert
// without faults), two thirds are jobs on hot keys warmed in set-up, a
// tenth are uploads of the v3 trace. The mix is exact in every block of
// twenty requests — only the order inside a block is drawn from the seed —
// so two seeds load the daemon alike. The daemon's wire format is written
// out here, on purpose not imported: the yardstick pins it.
const hotKeys = 16

// blockMix is the make-up of every block of twenty requests.
var blockMix = []struct {
	kind string
	n    uint64
}{{"cold", 5}, {"cached", 13}, {"upload", 2}}

const blockSize = 20

var nearChannels = [3]int{8, 16, 32}

type jobRequest struct {
	TraceDigest  string `json:"trace_digest"`
	Cores        int    `json:"cores"`
	NearChannels int    `json:"near_channels"`
	SPMiB        int    `json:"sp_mib"`
	RetrySeed    uint64 `json:"retry_seed"`
}

type jobResponse struct {
	Result json.RawMessage `json:"result"`
}

type daemonStats struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	JobsRejected uint64 `json:"jobs_rejected"`
}

// daemon is one running nmsimd child with a warmed result cache.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	http   *http.Client
	digest string   // the uploaded trace
	trace  []byte   // its v3 bytes, re-sent by upload requests
	cores  int      // cores the trace was recorded for
	hot    [][]byte // response body of hot key h, as first computed
}

// stop drains the daemon with SIGTERM and returns it as a finished child.
// Stopping a daemon that has already exited is an error without effect.
func (d *daemon) stop() (child, error) {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return child{}, err
	}
	var c child
	d.cmd.Wait() // the exit code is judged below, not the error
	if d.cmd.ProcessState == nil {
		return c, fmt.Errorf("nmsimd: no exit status")
	}
	c.measure(d.cmd.ProcessState)
	return c, nil
}

// post sends one request body and returns status, cache header and body.
func (d *daemon) post(path, contentType string, body []byte) (int, string, []byte, error) {
	resp, err := d.http.Post(d.url+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Nmsimd-Cache"), data, err
}

// job submits one replay cell.
func (d *daemon) job(channels int, retrySeed uint64) (int, string, []byte, error) {
	req, _ := json.Marshal(jobRequest{TraceDigest: d.digest, Cores: d.cores, NearChannels: channels, SPMiB: 1, RetrySeed: retrySeed})
	return d.post("/v1/jobs", "application/json", req)
}

func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	resp, err := d.http.Get(d.url + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// startDaemon is serve-mix's set-up after the build: record the trace and
// convert it to v3 with nmtrace, boot nmsimd on a free port, upload the
// trace, and run every hot key once so later requests on it hit the cache.
func (b *bench) startDaemon(clients int) (*daemon, error) {
	dir, err := os.MkdirTemp(b.run, "serve-")
	if err != nil {
		return nil, err
	}
	cores := b.Cores / 4
	v2, v3 := filepath.Join(dir, "nmsort.nmt"), filepath.Join(dir, "nmsort.nmt3")
	if _, err := b.want(0, "nmtrace", "record", "-alg", "nmsort", "-n", strconv.Itoa(b.N/8), "-cores", strconv.Itoa(cores),
		"-sp", "1", "-seed", strconv.FormatUint(b.Seed, 10), "-o", v2); err != nil {
		return nil, err
	}
	if _, err := b.want(0, "nmtrace", "convert", "-i", v2, "-o", v3); err != nil {
		return nil, err
	}
	d := &daemon{cores: cores, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	if d.trace, err = os.ReadFile(v3); err != nil {
		return nil, err
	}

	d.cmd = exec.CommandContext(b.ctx, filepath.Join(b.bin, "nmsimd"), "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(clients), "-queue", "64")
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	// The first line the daemon prints is its start-up handshake.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "nmsimd: listening on ")
	if err != nil || !ok {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return nil, fmt.Errorf("nmsimd did not announce its address: %q %v", line, err)
	}
	d.url = "http://" + addr

	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	status, _, body, err := d.post("/v1/traces", "application/octet-stream", d.trace)
	var info struct{ Digest string }
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &info)
	}
	if err != nil || info.Digest == "" {
		return fail(fmt.Errorf("uploading the trace: status %d: %v: %s", status, err, body))
	}
	d.digest = info.Digest
	for h := 0; h < hotKeys; h++ {
		status, cache, body, err := d.job(nearChannels[h%3], uint64(h+1))
		if err != nil || status != http.StatusOK || cache != "miss" {
			return fail(fmt.Errorf("warming hot key %d: status %d, cache %q: %v: %s", h, status, cache, err, body))
		}
		d.hot = append(d.hot, body)
	}
	return d, nil
}

// mix hashes (seed, i) (splitmix64), so clients can draw the i-th request
// of the seeded schedule in any interleaving.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// request names the i-th request of the schedule: its class, and how many
// requests of that class came before it.
func request(seed, i uint64) (kind string, ordinal uint64) {
	var classes []string
	for _, m := range blockMix {
		for k := uint64(0); k < m.n; k++ {
			classes = append(classes, m.kind)
		}
	}
	blk, pos := i/blockSize, i%blockSize
	for j := uint64(blockSize - 1); j > 0; j-- { // Fisher-Yates, seeded per block
		k := mix(seed, blk*blockSize+j) % (j + 1)
		classes[j], classes[k] = classes[k], classes[j]
	}
	kind = classes[pos]
	for _, m := range blockMix {
		if m.kind == kind {
			ordinal = blk * m.n
		}
	}
	for _, c := range classes[:pos] {
		if c == kind {
			ordinal++
		}
	}
	return kind, ordinal
}

// serveMix drives a closed loop against nmsimd: one client per CPU, each
// sending its next request when the previous reply arrives, as callers of
// `sweep -server` do. It shows serving overhead (cached jobs) beside replay
// under concurrency (cold jobs) and the store's write path (uploads).
func (b *bench) serveMix() (*outcome, error) {
	o := newOutcome()
	clients := b.NProc
	var d *daemon
	var err error
	o.setupS, err = b.medianSetup(func() (func(), error) {
		d, err = b.startDaemon(clients)
		return func() { d.stop() }, err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop() // for the error paths; the measured stop is below

	// The simulated result of a cold job must equal the hot key's for the
	// same near-memory width: retry_seed changes the cell key, nothing else.
	var want [3]jobResponse
	for i := range want {
		if err := json.Unmarshal(d.hot[i], &want[i]); err != nil {
			return nil, fmt.Errorf("hot key %d: %w", i, err)
		}
	}
	before, err := d.stats()
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	lat := map[string][]float64{} // per class
	var all []float64             // every request
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(b.Seconds) * time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//nmlint:ignore paronlygoroutines the load generator's clients are host-side HTTP callers, not simulator threads; wg joins them
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && b.ctx.Err() == nil {
				i := next.Add(1) - 1
				kind, ordinal := request(b.Seed, i)
				var problem string
				t0 := time.Now()
				switch kind {
				case "cold":
					// Cold jobs take the three node widths in turn.
					status, cache, body, err := d.job(nearChannels[ordinal%3], 1<<32+i)
					var got jobResponse
					if err != nil || status != http.StatusOK || cache != "miss" {
						problem = fmt.Sprintf("status %d, cache %q, %v", status, cache, err)
					} else if json.Unmarshal(body, &got) != nil || !bytes.Equal(got.Result, want[ordinal%3].Result) {
						problem = "result differs from the hot key's for the same node"
					}
				case "cached":
					h := int(mix(b.Seed, i) % hotKeys)
					status, cache, body, err := d.job(nearChannels[h%3], uint64(h+1))
					if err != nil || status != http.StatusOK || cache != "hit" {
						problem = fmt.Sprintf("status %d, cache %q, %v", status, cache, err)
					} else if !bytes.Equal(body, d.hot[h]) {
						problem = "cached body differs from its cold body"
					}
				default:
					status, _, body, err := d.post("/v1/traces", "application/octet-stream", d.trace)
					if err != nil || status != http.StatusOK || !bytes.Contains(body, []byte(d.digest)) {
						problem = fmt.Sprintf("status %d, %v, %s", status, err, body)
					}
				}
				seconds := time.Since(t0).Seconds()
				mu.Lock()
				o.attempted++
				if problem != "" {
					o.fail("serve-mix request %d (%s): %s", i, kind, problem)
				} else {
					lat[kind] = append(lat[kind], seconds)
					all = append(all, seconds)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// The daemon's own counters must agree with what the clients saw.
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	o.attempted++
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if o.failed == 0 && (hits != uint64(len(lat["cached"])) || misses != uint64(len(lat["cold"])) || after.JobsRejected != before.JobsRejected) {
		o.fail("serve-mix: /v1/stats moved by %d hits, %d misses, %d rejections; the schedule made %d cached and %d cold jobs",
			hits, misses, after.JobsRejected-before.JobsRejected, len(lat["cached"]), len(lat["cold"]))
	}
	c, err := d.stop()
	if err != nil {
		return nil, err
	}
	o.attempted++
	if c.exit != 0 {
		o.fail("serve-mix: nmsimd exited %d after SIGTERM", c.exit)
	}

	// The gated latency is the cold job's, the request that simulates; the
	// tail is taken over the whole mix, which has the samples for a p95 and
	// whose p95 lies inside the cold jobs. CPU per request spans the
	// daemon's whole life: the warm-up's requests (one upload, the hot keys)
	// count on both sides of the division.
	o.walls, o.tailOf = lat["cold"], all
	o.cpuS = c.cpu / float64(len(all)+1+hotKeys)
	o.rssMiB = c.rssMiB
	o.workPerS = float64(len(all)) / elapsed
	o.digest = sha(d.hot...)
	o.detail["serve_rps"] = o.workPerS
	for _, m := range []struct {
		name, class string
		p           float64
	}{
		{"job_cold_p50_ms", "cold", 50}, {"job_cold_p95_ms", "cold", 95},
		{"job_cached_p50_ms", "cached", 50}, {"job_cached_p99_ms", "cached", 99},
		{"upload_p50_ms", "upload", 50},
	} {
		xs := lat[m.class]
		o.samples[m.class] = len(xs)
		v := stat.Percentile(xs, m.p)
		if m.p > 50 {
			var p float64
			if v, p = stat.Tail(xs, m.p); p != m.p {
				o.notes = append(o.notes, fmt.Sprintf("%s reports p%.0f: %d samples leave fewer than ten beyond p%.0f", m.name, p, len(xs), m.p))
			}
		}
		o.detail[m.name] = v * 1e3
	}
	return o, nil
}
