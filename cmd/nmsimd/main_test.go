package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFlagValidation drives the parse/validate split through good and bad
// flag combinations.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of validate error; "" means valid
	}{
		{"defaults", nil, ""},
		{"port zero", []string{"-addr", "127.0.0.1:0"}, ""},
		{"tuned", []string{"-workers", "8", "-queue", "128", "-store-mb", "64", "-cache-entries", "16", "-drain", "1s"}, ""},
		{"empty addr", []string{"-addr", ""}, "-addr"},
		{"addr without port", []string{"-addr", "localhost"}, "-addr"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
		{"negative queue", []string{"-queue", "-1"}, "-queue"},
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"zero store", []string{"-store-mb", "0"}, "-store-mb"},
		{"negative cache", []string{"-cache-entries", "-1"}, "-cache-entries"},
		{"zero cache", []string{"-cache-entries", "0"}, "-cache-entries"},
		{"negative drain", []string{"-drain", "-1s"}, "-drain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, _, err := parseFlags(tc.args)
			if err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			err = o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%v) = %v, want error mentioning %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseError checks unknown flags surface as parse errors, not panics.
// -max-events is one: a replay's event budget is its trace's EventBound.
// So is -slice: a supervised replay polls every 2^16 events, which no flag
// sets.
func TestParseError(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-max-events", "100000000"}, {"-slice", "4096"}} {
		if _, _, err := parseFlags(args); err == nil {
			t.Fatalf("parseFlags accepted %v", args)
		}
	}
}

// TestRunServesAndDrains boots the daemon on a free port, serves one real
// request through the public API, cancels the context, and checks run
// returns nil (the exit-0 graceful-drain contract).
func TestRunServesAndDrains(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := parseFlags([]string{"-drain", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, lis, &out) }()

	c := &serve.Client{BaseURL: "http://" + lis.Addr().String()}
	// The listener is live before run is called, so the request may race
	// only with Serve picking it up; retry briefly.
	var st serve.Stats
	for i := 0; ; i++ {
		st, err = c.Stats(context.Background())
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("daemon never answered /v1/stats: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Traces != 0 || st.JobsDone != 0 {
		t.Fatalf("fresh daemon reported non-empty stats: %+v", st)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
	if !strings.Contains(out.String(), "nmsimd: listening on "+lis.Addr().String()) {
		t.Fatalf("startup line missing or wrong: %q", out.String())
	}
}
