package harness

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestDiskRecordCacheRoundTrip pins byte-neutrality of the on-disk record
// cache: a completion followed by a lookup returns a trace with the same
// digest as the fresh recording, persisted as a columnar .nmt3 file.
func TestDiskRecordCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rc, err := NewDiskRecordCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 10, Seed: 3, Threads: 4, SP: 64 * units.KiB}

	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
		t.Fatal("empty cache reported a hit")
	}
	fresh, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	rc.CompleteRecord(AlgNMSort, RecordKey(w), fresh)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".nmt3") {
		t.Fatalf("cache dir contents: %v, want one .nmt3 file", ents)
	}

	got, ok := rc.LookupRecord(AlgNMSort, RecordKey(w))
	if !ok {
		t.Fatal("completed record not found")
	}
	if got.Trace.Count() != fresh.Trace.Count() {
		t.Fatalf("cached result mismatch: %+v vs %+v", got.Trace.Count(), fresh.Trace.Count())
	}
	wantD, err := fresh.Trace.Digest()
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := got.Trace.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotD != wantD {
		t.Fatalf("cached trace digest %016x != fresh %016x", gotD, wantD)
	}

	// A different workload is a separate key.
	w2 := w
	w2.Seed = 4
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w2)); ok {
		t.Fatal("different workload hit the same cache entry")
	}
}

// TestDiskRecordCacheCorruptIsMiss: a truncated cache file must read as a
// miss, not an error — the caller re-records and overwrites.
func TestDiskRecordCacheCorruptIsMiss(t *testing.T) {
	dir := t.TempDir()
	rc, err := NewDiskRecordCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 9, Seed: 5, Threads: 2, SP: 64 * units.KiB}
	fresh, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	rc.CompleteRecord(AlgNMSort, RecordKey(w), fresh)

	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("cache dir contents: %v", ents)
	}
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
		t.Fatal("truncated cache file reported a hit")
	}
}

// TestRecordUsesDiskCache wires the cache through a Supervisor the way
// -trace-cache does and checks Record itself takes the hit path — under a
// second supervisor, whose memo does not hold the first one's recording.
func TestRecordUsesDiskCache(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 10, Seed: 7, Threads: 4, SP: 64 * units.KiB, Sup: &Supervisor{Records: rc}}

	first, cached, err := record(AlgNMSort, w)
	if err != nil || cached {
		t.Fatalf("first recording: cached=%v err=%v", cached, err)
	}
	w.Sup = &Supervisor{Records: rc}
	second, cached, err := record(AlgNMSort, w)
	if err != nil || !cached {
		t.Fatalf("second supervisor: cached=%v err=%v, want the cache file", cached, err)
	}
	d1, err := first.Trace.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := second.Trace.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("disk-cached recording digest %016x != fresh %016x", d2, d1)
	}
}

// TestDiskRecordCacheInvalidIsMissAndOverwritten: a .nmt3 whose framing
// opens but whose streams fail Validate (here: threads disagreeing on their
// barrier count) is a miss, its mapping is released on the spot, and the
// re-recording that follows overwrites it with a file that hits.
func TestDiskRecordCacheInvalidIsMissAndOverwritten(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 9, Seed: 5, Threads: 2, SP: 64 * units.KiB, Sup: &Supervisor{Records: rc}}
	bad, err := trace.EncodeColumnar(&trace.Trace{
		L1: ScaledL1, Costs: trace.DefaultCosts(),
		Streams: [][]trace.Op{
			{{Kind: trace.OpBarrier}, {Kind: trace.OpEnd}},
			{{Kind: trace.OpEnd}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := rc.path(AlgNMSort, RecordKey(w)) + ".nmt3"
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	releaseDroppedMappings(t) // so no earlier test's mapping is released between the two samples
	before := trace.MappedBytes()
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
		t.Fatal("a cache file that fails Validate reported a hit")
	}
	if got := trace.MappedBytes(); got != before {
		t.Fatalf("the rejected file is still mapped: %d bytes, were %d", got, before)
	}
	fresh, err := Record(AlgNMSort, w)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rc.LookupRecord(AlgNMSort, RecordKey(w))
	if !ok {
		t.Fatal("the re-recording did not overwrite the invalid file")
	}
	if got.Trace.Count() != fresh.Trace.Count() || got.Trace.Ops() != fresh.Trace.Ops() {
		t.Fatalf("overwritten entry: %+v / %d ops, recorded %+v / %d ops",
			got.Trace.Count(), got.Trace.Ops(), fresh.Trace.Count(), fresh.Trace.Ops())
	}
}

// TestLegacyV2CacheFileIsMiss: nothing has written a .nmt cache file since
// recordings were born columnar, and the lookup no longer reads one — a
// directory holding only the key's valid v2 stream misses, and the
// re-recording lands beside it as the .nmt3 that hits.
func TestLegacyV2CacheFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	rc, err := NewDiskRecordCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 9, Seed: 11, Threads: 2, SP: 64 * units.KiB}
	fresh, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	base := rc.path(AlgGNUSort, RecordKey(w))
	legacy, err := os.Create(base + ".nmt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Trace.WriteTo(legacy); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	rc.loaded = func(path string) { t.Errorf("the lookup mapped %s", path) }
	if _, ok := rc.LookupRecord(AlgGNUSort, RecordKey(w)); ok {
		t.Fatal("a legacy .nmt file reported a hit")
	}
	rc.loaded = nil

	w.Sup = &Supervisor{Records: rc}
	if _, err := Record(AlgGNUSort, w); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".nmt3"); err != nil {
		t.Fatalf("the re-recording wrote no .nmt3: %v", err)
	}
	got, ok := rc.LookupRecord(AlgGNUSort, RecordKey(w))
	if !ok {
		t.Fatal("after re-recording: the lookup missed")
	}
	if got.Trace.Count() != fresh.Trace.Count() {
		t.Fatalf("after re-recording: counts %+v, recorded %+v", got.Trace.Count(), fresh.Trace.Count())
	}
}

// TestCacheFileUnderAnOldKeyIsIgnored: before keyVersion 2 a -trace-cache
// file was named by the CRC-64 of fmt.Sprintf("%s|%+v", alg, w). A directory
// holding a valid recording under that name — another algorithm's, so a hit
// would replay the wrong program — misses, and the workload is re-recorded
// under its current name.
func TestCacheFileUnderAnOldKeyIsIgnored(t *testing.T) {
	dir := t.TempDir()
	rc, err := NewDiskRecordCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 9, Seed: 13, Threads: 2, SP: 64 * units.KiB}
	oldKey := crc64.Checksum([]byte(fmt.Sprintf("%s|%+v", AlgNMSort, RecordKey(w))), crc64.MakeTable(crc64.ECMA))
	old := filepath.Join(dir, fmt.Sprintf("%s-%016x.nmt3", AlgNMSort, oldKey))
	gnu, err := Record(AlgGNUSort, w)
	if err != nil {
		t.Fatal(err)
	}
	rc.CompleteRecord(AlgGNUSort, RecordKey(w), gnu)
	if err := os.Rename(rc.path(AlgGNUSort, RecordKey(w))+".nmt3", old); err != nil {
		t.Fatal(err)
	}
	rc.loaded = func(path string) { t.Errorf("the lookup mapped %s", path) }
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
		t.Fatal("a file under the old key reported a hit")
	}
	rc.loaded = nil

	w.Sup = &Supervisor{Records: rc}
	got, found, err := record(AlgNMSort, w)
	if err != nil || found {
		t.Fatalf("re-recording: found=%v err=%v", found, err)
	}
	fresh, err := Record(AlgNMSort, Workload{N: w.N, Seed: w.Seed, Threads: w.Threads, SP: w.SP})
	if err != nil {
		t.Fatal(err)
	}
	gotD, err1 := got.Trace.Digest()
	wantD, err2 := fresh.Trace.Digest()
	if err1 != nil || err2 != nil || gotD != wantD {
		t.Fatalf("re-recorded digest %016x (%v), fresh %016x (%v)", gotD, err1, wantD, err2)
	}
	if _, err := os.Stat(rc.path(AlgNMSort, RecordKey(w)) + ".nmt3"); err != nil {
		t.Fatalf("the re-recording wrote no file under the current key: %v", err)
	}
}

// TestTruncatedCacheFileFailsOneCell: a cache hit is replayed in place from
// a MAP_SHARED mapping, so a file truncated under a running sweep faults the
// cursor that reads it. Under a supervisor that is one failed cell of kind
// "panic" — not a dead process — and the cells replaying other traces are
// untouched.
func TestTruncatedCacheFileFailsOneCell(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 12, Seed: 9, Threads: 8, SP: 256 * units.KiB, Sup: &Supervisor{Records: rc}}
	for _, alg := range []Algorithm{AlgGNUSort, AlgNMSort} {
		if _, err := Record(alg, w); err != nil { // populates the cache
			t.Fatal(err)
		}
	}
	releaseDroppedMappings(t)
	gnu, ok1 := rc.LookupRecord(AlgGNUSort, RecordKey(w))
	nm, ok2 := rc.LookupRecord(AlgNMSort, RecordKey(w))
	if !ok1 || !ok2 {
		t.Fatal("the populated cache missed")
	}
	if trace.MappedBytes() == 0 {
		t.Skip("this platform reads cache files instead of mapping them")
	}
	cfg := NodeFor(w.Threads, 8, w.SP)
	want, err := machine.Run(cfg, gnu.Trace)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.Truncate(rc.path(AlgNMSort, RecordKey(w))+".nmt3", 0); err != nil {
		t.Fatal(err)
	}
	outs := runReplays(&Supervisor{}, 2, []replayJob{
		{cfg: cfg, tr: gnu.Trace, label: "gnu-a"},
		{cfg: cfg, tr: nm.Trace, label: "nm"},
		{cfg: cfg, tr: gnu.Trace, label: "gnu-b"},
	})
	var pe *ReplayPanicError
	if !errors.As(outs[1].err, &pe) || FailKind(outs[1].err) != "panic" || pe.Label != "nm" {
		t.Fatalf("the truncated trace's cell: err = %v, want a ReplayPanicError for cell nm", outs[1].err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].err != nil {
			t.Fatalf("sibling cell %d failed: %v", i, outs[i].err)
		}
		if outs[i].res.SimTime != want.SimTime || outs[i].res.FarAccesses != want.FarAccesses {
			t.Fatalf("sibling cell %d: %v / %d far accesses, want %v / %d", i,
				outs[i].res.SimTime, outs[i].res.FarAccesses, want.SimTime, want.FarAccesses)
		}
	}
	// The fault handler is scoped to the attempt: this goroutine is back to
	// the default, where a fault is fatal rather than a panic.
	if was := debug.SetPanicOnFault(false); was {
		t.Fatal("SetPanicOnFault leaked out of Supervisor.attempt")
	}
}

// TestCacheFileTruncatedUnderLookupIsMiss: LookupRecord walks a freshly
// mapped file on forked goroutines, so another process truncating it between
// the map and the walk used to be a SIGBUS that killed this process. It is a
// miss: the mapping is closed on the spot, the sweep re-records, renders the
// bytes of an uncached run, and overwrites the file with one that hits.
func TestCacheFileTruncatedUnderLookupIsMiss(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain := Workload{N: 1 << 12, Seed: 13, Threads: 8, SP: 256 * units.KiB, Sup: &Supervisor{}}
	uncached, err := BandwidthSweep(plain)
	if err != nil {
		t.Fatal(err)
	}
	w := plain
	w.Sup = &Supervisor{Records: rc}
	if _, err := BandwidthSweep(w); err != nil { // populates the cache
		t.Fatal(err)
	}
	releaseDroppedMappings(t)
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); !ok {
		t.Fatal("the sweep did not populate the cache")
	} else if trace.MappedBytes() == 0 {
		t.Skip("this platform reads cache files instead of mapping them")
	}
	victim := rc.path(AlgNMSort, RecordKey(w)) + ".nmt3"
	truncations := 0
	rc.loaded = func(path string) {
		if path == victim && truncations == 0 {
			truncations++
			if err := os.Truncate(path, 0); err != nil {
				t.Error(err)
			}
		}
	}

	releaseDroppedMappings(t)
	before := trace.MappedBytes()
	if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
		t.Fatal("a file truncated under the walk reported a hit")
	}
	if truncations != 1 {
		t.Fatalf("the hook truncated %d files, want 1", truncations)
	}
	if got := trace.MappedBytes(); got != before {
		t.Fatalf("the truncated file is still mapped: %d bytes, were %d", got, before)
	}
	if was := debug.SetPanicOnFault(false); was {
		t.Fatal("SetPanicOnFault leaked out of LookupRecord")
	}

	// The same race under a sweep — a new supervisor's, whose memo holds
	// nothing yet: the file is empty now, so re-arm the hook on a file that
	// maps — the baseline's.
	victim, truncations = rc.path(AlgGNUSort, RecordKey(w))+".nmt3", 0
	w.Sup = &Supervisor{Records: rc}
	s, err := BandwidthSweep(w)
	if err != nil || s.Failed() != 0 {
		t.Fatalf("sweep over a cache file truncated under its lookup: err=%v failed=%d", err, s.Failed())
	}
	if truncations != 1 {
		t.Fatalf("the hook truncated %d files under the sweep, want 1", truncations)
	}
	if got, want := renderSweep(t, s), renderSweep(t, uncached); got != want {
		t.Errorf("sweep differs from the uncached run's:\n%s\nwant:\n%s", got, want)
	}
	rc.loaded = nil
	for _, alg := range []Algorithm{AlgGNUSort, AlgNMSort} {
		if _, ok := rc.LookupRecord(alg, RecordKey(w)); !ok {
			t.Errorf("%s: the re-recording did not overwrite the truncated file", alg)
		}
	}
	s, w.Sup = Sweep{}, nil
	releaseDroppedMappings(t)
}

// TestCacheFileWithAFlippedByteIsMiss: a bit flipped on disk in any kind of
// segment of the image — a column, the head, the zero padding after a column
// inside a thread's segment or after the last thread's, the section table —
// still opens and validates, so the payload CRC is the only check that can
// tell: Verify and CheckPayload each call the file torn or corrupted, and the
// lookup turns it into a miss. The sweep then re-records and prints the bytes
// of an uncached run.
func TestCacheFileWithAFlippedByteIsMiss(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain := Workload{N: 1 << 12, Seed: 17, Threads: 8, SP: 256 * units.KiB, Sup: &Supervisor{}}
	uncached, err := BandwidthSweep(plain)
	if err != nil {
		t.Fatal(err)
	}
	w := plain
	w.Sup = &Supervisor{Records: rc}
	if _, err := BandwidthSweep(w); err != nil { // populates the cache
		t.Fatal(err)
	}
	victim := rc.path(AlgNMSort, RecordKey(w)) + ".nmt3"
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	col, err := trace.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := col.Sections()
	tableOff := int64(len(data)) - 64 - int64(col.Threads())*96
	end := func(s trace.Section) int64 { return s.Offset + s.Bytes }
	var addrs, padded trace.Section
	for i, sec := range secs {
		if sec.Thread == 5 && sec.Column == "addrs" {
			addrs = sec
		}
		if i+1 < len(secs) && secs[i+1].Thread == sec.Thread && end(sec) < secs[i+1].Offset && padded.Column == "" {
			padded = sec
		}
	}
	// inColumn reports whether byte at lies in some column.
	inColumn := func(at int64) bool {
		for _, sec := range secs {
			if sec.Offset <= at && at < end(sec) {
				return true
			}
		}
		return false
	}
	if addrs.Bytes == 0 || padded.Column == "" {
		t.Fatalf("the image lacks a segment kind to flip: addrs %+v, padded %+v", addrs, padded)
	}
	rows := []struct {
		name string
		at   int64
		pad  bool // the byte is zero padding, in no column
	}{
		{"thread 5 addrs column", addrs.Offset + addrs.Bytes/2, false},
		{"head padding", secs[0].Offset - 1, true},
		{"padding after a column inside a thread", end(padded), true},
		{"last thread's padding before the section table", tableOff - 1, true},
		// Thread 1's address shift: the low bit moves every address, which
		// still routes, and nothing else reads it.
		{"section table", tableOff + 96 + 8, false},
	}
	for _, row := range rows {
		bad := bytes.Clone(data)
		bad[row.at] ^= 0x01
		if row.pad && (data[row.at] != 0 || inColumn(row.at)) {
			t.Fatalf("%s: byte %d (%#x) is not padding", row.name, row.at, data[row.at])
		}
		flipped, err := trace.OpenBytes(bad)
		if err != nil || flipped.Validate() != nil {
			t.Fatalf("%s: the flipped file must open and validate, so only its CRC can tell: %v", row.name, err)
		}
		for i, err := range []error{flipped.CheckPayload(nil), flipped.Verify()} {
			if err == nil || !strings.Contains(err.Error(), "torn or corrupted") {
				t.Errorf("%s: %s = %v, want torn or corrupted", row.name, []string{"CheckPayload", "Verify"}[i], err)
			}
		}
		if err := os.WriteFile(victim, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); ok {
			t.Fatalf("%s: a cache file with a flipped byte reported a hit", row.name)
		}
		w.Sup = &Supervisor{Records: rc}
		s, err := BandwidthSweep(w)
		if err != nil || s.Failed() != 0 {
			t.Fatalf("%s: sweep over a corrupted cache file: err=%v failed=%d", row.name, err, s.Failed())
		}
		if got, want := renderSweep(t, s), renderSweep(t, uncached); got != want {
			t.Errorf("%s: sweep differs from the uncached run's:\n%s\nwant:\n%s", row.name, got, want)
		}
		if again, err := os.ReadFile(victim); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: the re-recording did not restore the file (%v)", row.name, err)
		}
		if _, ok := rc.LookupRecord(AlgNMSort, RecordKey(w)); !ok {
			t.Errorf("%s: the re-recording did not overwrite the corrupted file", row.name)
		}
	}
	w.Sup = nil
	releaseDroppedMappings(t)
}

// TestDiskCacheMappingsReleased: LookupRecord hands out traces backed by
// mappings it never closes — they must outlive every cursor — so dropping
// the results is what releases them. A supervisor's record memo is one such
// holder: after a cached sweep nothing may stay mapped once the supervisor
// is dropped, and while it lives its memo keeps both mappings.
func TestDiskCacheMappingsReleased(t *testing.T) {
	rc, err := NewDiskRecordCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{N: 1 << 12, Seed: 11, Threads: 8, SP: 256 * units.KiB, Sup: &Supervisor{Records: rc}}
	if _, err := BandwidthSweep(w); err != nil { // records both sorts, writes the cache
		t.Fatal(err)
	}
	releaseDroppedMappings(t)
	hit, ok := rc.LookupRecord(AlgNMSort, RecordKey(w))
	if !ok {
		t.Fatal("the sweep did not populate the cache")
	}
	mapped := trace.MappedBytes() != 0
	if mapped && trace.MappedBytes() != hit.Trace.Columns().Size() {
		t.Fatalf("a mapped hit of %d bytes is live but MappedBytes() = %d", hit.Trace.Columns().Size(), trace.MappedBytes())
	}
	hit = RecordResult{}
	releaseDroppedMappings(t)

	sup := &Supervisor{Records: rc} // a new run: its memo starts empty
	w.Sup = sup
	if _, err := BandwidthSweep(w); err != nil { // replays both from their mappings
		t.Fatal(err)
	}
	runtime.GC()
	if mapped && trace.MappedBytes() == 0 {
		t.Fatal("the supervisor's memo lost its mapped recordings while it lives")
	}
	runtime.KeepAlive(sup)
	w.Sup = nil // dropping the supervisor drops its memo
	releaseDroppedMappings(t)
}

// releaseDroppedMappings waits until no trace file is mapped. LookupRecord
// hands out mappings it never closes, so a dropped trace's mapping goes when
// its finalizer runs; call it only where the test holds no mapped trace.
func releaseDroppedMappings(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for trace.MappedBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after every mapped trace was dropped", trace.MappedBytes())
		}
		runtime.GC() // finalizers run on their own goroutine, some time after the cycle that queued them
		time.Sleep(10 * time.Millisecond)
	}
}
