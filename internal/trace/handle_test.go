package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestBuiltTraceFirstUseIsRaceSafe: goroutines racing to be a fresh
// hand-built trace's first user all read the one image — sealed once, walked
// once for verdict and digest both. Run under -race by scripts/check.sh.
func TestBuiltTraceFirstUseIsRaceSafe(t *testing.T) {
	for round := uint64(0); round < 20; round++ {
		tr := generatedTrace(1000 + round)
		wantDigest, wantDigestErr := generatedTrace(1000 + round).Digest()
		wantVerdict := generatedTrace(1000 + round).Validate()
		const users = 8
		images := make([]*Columnar, users)
		walks, _ := countWalks(func() {
			var wg sync.WaitGroup
			wg.Add(users)
			for u := 0; u < users; u++ {
				go func(u int) {
					defer wg.Done()
					switch u % 3 {
					case 0:
						for cur := tr.CursorAt(0); cur.Next(); {
						}
					case 1:
						if d, err := tr.Digest(); d != wantDigest || fmt.Sprint(err) != fmt.Sprint(wantDigestErr) {
							t.Errorf("round %d: Digest = %#x, %v; alone it is %#x, %v", round, d, err, wantDigest, wantDigestErr)
						}
					case 2:
						if err := tr.Validate(); fmt.Sprint(err) != fmt.Sprint(wantVerdict) {
							t.Errorf("round %d: Validate = %v; alone it is %v", round, err, wantVerdict)
						}
					}
					images[u] = tr.Columns()
				}(u)
			}
			wg.Wait()
		})
		for _, image := range images {
			if image != images[0] {
				t.Fatalf("round %d: two goroutines hold two images", round)
			}
		}
		if walks != 1 {
			t.Fatalf("round %d: %d walks of the one image, want 1", round, walks)
		}
	}
}

// TestCursorHasOneMode pins the cursor's size: it shrank by 40 bytes when the
// decoded-slice mode (a slice, an index, a mode flag) went, and the replay
// core embeds one per simulated core. A second mode cannot come back
// unnoticed. Its words are pointers and ints, so the size depends on theirs:
// 296 bytes with 64-bit words, 196 with 32-bit ones.
func TestCursorHasOneMode(t *testing.T) {
	want := uintptr(296)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 196
	}
	if got := unsafe.Sizeof(Cursor{}); got != want {
		t.Fatalf("Cursor is %d bytes, want %d", got, want)
	}
}

// TestReadTraceRefusesV1: nothing has written a v1 stream since the seed, and
// the reader refuses one at its header like any other version it does not
// know — from a reader and from a file.
func TestReadTraceRefusesV1(t *testing.T) {
	for i, v2 := range fuzzSeedTraces(t) {
		v1 := v1Stream(t, v2)
		_, err := ReadTrace(bytes.NewReader(v1))
		var de *DecodeError
		if !errors.As(err, &de) || de.Section != "header" || de.Offset != 4 || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("seed %d: ReadTrace of a v1 stream: %v", i, err)
		}
		if _, err := ReadTrace(bytes.NewReader(v2)); err != nil {
			t.Fatalf("seed %d: the v2 stream it was cut from: %v", i, err)
		}
	}
}
