package prof

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilStagesAreFree: the nil recorder is the off switch — no guard at the
// call site, no allocation, nothing printed.
func TestNilStagesAreFree(t *testing.T) {
	var s *Stages
	if n := testing.AllocsPerRun(100, func() { s.Start(1, "cell", "x").End("cached") }); n != 0 {
		t.Errorf("a stage on the nil recorder allocates %v times", n)
	}
	var b strings.Builder
	if n, err := s.WriteTo(&b); n != 0 || err != nil || b.Len() != 0 || s.Snapshot() != nil {
		t.Errorf("the nil recorder wrote %q (n=%d, err=%v)", b.String(), n, err)
	}
}

// TestServerTiming: ended stages only, in start order, as Server-Timing
// metrics; nothing at all from the nil recorder.
func TestServerTiming(t *testing.T) {
	var off *Stages
	if got := off.ServerTiming(); got != "" {
		t.Errorf("the nil recorder renders %q", got)
	}
	s := NewStages()
	s.Start(0, "request", "queue").End()
	open := s.Start(0, "request", "write")
	s.Start(0, "request", "replay").End()
	got := s.ServerTiming()
	if !regexp.MustCompile(`^queue;dur=\d+\.\d{3}, replay;dur=\d+\.\d{3}$`).MatchString(got) {
		t.Errorf("ServerTiming() = %q", got)
	}
	open.End()
	if got := s.ServerTiming(); !strings.Contains(got, ", write;dur=") {
		t.Errorf("once ended, the stage is missing: %q", got)
	}
	s.Start(0, "request", "verify").EndAs("resident")
	if got := s.ServerTiming(); !regexp.MustCompile(`, replay;dur=[0-9.]+, resident;dur=[0-9.]+$`).MatchString(got) {
		t.Errorf("EndAs kept the old name: %q", got)
	}
	off.Start(0, "request", "verify").EndAs("resident") // inert on the nil recorder
}

// TestStagesRecordConcurrently: lanes open and close stages at once; every
// stage comes back ended, in start order, with its non-empty marks.
func TestStagesRecordConcurrently(t *testing.T) {
	s := NewStages()
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Start(lane, "cell", "c").End("", "shared")
			}
		}(lane)
	}
	wg.Wait()
	all := s.Snapshot()
	if len(all) != 200 {
		t.Fatalf("%d stages, want 200", len(all))
	}
	for i, st := range all {
		if st.End < st.Start || (i > 0 && st.Start < all[i-1].Start) {
			t.Fatalf("stage %d: %+v after %+v", i, st, all[max(i-1, 0)])
		}
		if len(st.Marks) != 1 || st.Marks[0] != "shared" {
			t.Fatalf("stage %d: marks %v", i, st.Marks)
		}
	}
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil || strings.Count(b.String(), "\n") != 200 ||
		!strings.Contains(b.String(), "lane=recorder") || !strings.Contains(b.String(), "lane=replay-3") ||
		!strings.Contains(b.String(), "[shared]") {
		t.Errorf("WriteTo (err=%v):\n%s", err, b.String())
	}
}

// TestSum: the ended stages of one kind, summed across lanes; open stages
// and other kinds are left out, and the nil recorder sums to zero.
func TestSum(t *testing.T) {
	var off *Stages
	if d := off.Sum("cell"); d != 0 {
		t.Errorf("the nil recorder sums to %v", d)
	}
	s := NewStages()
	var want time.Duration
	for lane := 1; lane <= 3; lane++ {
		sp := s.Start(lane, "cell", "GNU Sort")
		time.Sleep(time.Millisecond)
		sp.End()
		st := s.Snapshot()
		want += st[len(st)-1].End - st[len(st)-1].Start
	}
	s.Start(0, "record", "nmsort").End()
	s.Start(2, "cell", "open")
	if got := s.Sum("cell"); got != want || got < 3*time.Millisecond {
		t.Errorf("Sum(cell) = %v, want %v", got, want)
	}
	if got := Metric("cells", 3208*time.Microsecond); got != "cells;dur=3.208" {
		t.Errorf("Metric = %q", got)
	}
}
