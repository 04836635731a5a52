// Package clitest holds the command-line tables and checks nmsim's and
// sweep's tests share. Each command's tests run every table against its own
// flag list, so a row is written once and covers both commands, including
// the flags only the other one has.
package clitest

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/serve"
)

// Case is one command line and what each command makes of it: the text its
// error must contain, or "" for a valid line. A parse error and a rule the
// line breaks are one outcome, as they are for cli.Main (exit 2 either way).
type Case struct {
	Name         string
	Args         string // split on spaces
	NMSim, Sweep string
}

// Validate checks each case against c.
func Validate(t *testing.T, c cli.Command, cases []Case) {
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			want := tc.Sweep
			if c.Name == cli.NMSim.Name {
				want = tc.NMSim
			}
			_, err := c.Parse(strings.Fields(tc.Args), io.Discard)
			switch {
			case want == "" && err != nil:
				t.Fatalf("%s %s: %v, want valid", c.Name, tc.Args, err)
			case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Fatalf("%s %s: %v, want an error mentioning %q", c.Name, tc.Args, err, want)
			}
		})
	}
}

// Flags holds the flags every command has, then each command's own: on the
// other command, an own flag is an undefined-flag usage error.
var Flags = []Case{
	{"defaults", "", "", ""},
	{"negative n", "-n -1", "-n", "-n"},
	{"zero cores", "-cores 0", "-cores", "-cores"},
	{"negative cores", "-cores -8", "-cores", "-cores"},
	{"cores not multiple of 4", "-cores 6", "-cores", "-cores"},
	{"bad cores", "-cores 10", "-cores", "-cores"},
	{"zero scratchpad", "-sp 0", "-sp", "-sp"},
	{"negative scratchpad", "-sp -2", "-sp", "-sp"},
	{"bad format", "-format xml", "format", "format"},
	{"negative par", "-par -1", "-par", "-par"},
	{"valid par", "-par 8", "", ""},
	{"valid par auto", "-par 0", "", ""},
	// -shards is gone (DESIGN.md §10): every spelling, including the two
	// that used to be valid, is an undefined-flag usage error.
	{"bad shards", "-shards -2", "-shards", "-shards"},
	{"valid shards", "-shards 4", "-shards", "-shards"},
	{"valid shards auto", "-shards -1", "-shards", "-shards"},
	// So is -max-events: a replay's event budget is its trace's
	// machine.EventBound.
	{"max-events", "-max-events 100000000", "-max-events", "-max-events"},
	{"valid profiles", "-cpuprofile cpu.pprof -memprofile mem.pprof", "", ""},
	{"valid server", "-server http://127.0.0.1:8080", "", ""},
	{"valid server with timeout", "-server http://127.0.0.1:8080 -job-timeout 1m", "", ""},
	{"server bad scheme", "-server unix:///tmp/s", "http", "http"},
	{"server no host", "-server https://", "host", "host"},
	{"server garbage", "-server ::", "-server", "-server"},
	{"job-timeout without server", "-job-timeout 5s", "-job-timeout requires -server", "-job-timeout requires -server"},
	{"negative job-timeout", "-server http://h:1 -job-timeout -1s", "-job-timeout", "-job-timeout"},
	{"server zero n", "-server http://h:1 -n 0", "-n 0", "-n 0"},
	{"server zero seed", "-server http://h:1 -seed 0", "-seed 0", "-seed 0"},
	{"server conflicts trace cache", "-server http://h:1 -trace-cache d", "-trace-cache", "-trace-cache"},

	// nmsim's own.
	{"negative fault rate", "-fault-rate -0.5", "-fault-rate", "-fault-rate"},
	{"fault rate above one", "-fault-rate 1.5", "-fault-rate", "-fault-rate"},
	{"bad distribution", "-dist bimodal", "bimodal", "-dist"},
	{"valid faults", "-fault-rate 1e-4 -fault-seed 9", "", "-fault-rate"},
	{"valid zipf csv", "-dist zipf -format csv", "", "-dist"},
	{"valid dma", "-dma", "", "-dma"},
	{"telemetry", "-telemetry-out t.json", "", "-telemetry-out"},
	{"server conflicts telemetry", "-server http://h:1 -telemetry-out t.json", "-telemetry-out", "-telemetry-out"},
	{"server conflicts telemetry csv", "-server http://h:1 -telemetry-csv t.csv", "-telemetry-out", "-telemetry-csv"},

	// sweep's own.
	{"unknown experiment", "-exp latency", "-exp", "unknown experiment"},
	{"valid kmeans", "-exp kmeans", "-exp", ""},
	{"bad corelist entry", "-exp cores -corelist 64,91", "-exp", "core count"},
	{"empty corelist entry", "-exp cores -corelist 64,,128", "-exp", "core count"},
	{"corelist ignored elsewhere", "-exp dma -corelist 64,91", "-exp", ""},
	{"bad fault rate", "-exp faults -fault-rates 0.1,2", "-exp", "fault rate"},
	{"negative fault rates entry", "-exp faults -fault-rates -1e-3", "-exp", "fault rate"},
	{"garbage fault rate", "-exp faults -fault-rates lots", "-exp", "fault rate"},
	{"fault rates ignored elsewhere", "-exp cores -fault-rates 9", "-exp", ""},
	{"valid fault rates", "-exp faults -fault-rates 1e-4,1e-3 -fault-seed 3", "-exp", ""},
	{"manifest", "-manifest m.json", "-manifest", ""},
	{"server conflicts manifest", "-server http://h:1 -manifest m.json", "-manifest", "-manifest"},
	{"server conflicts resume", "-server http://h:1 -manifest m.json -resume", "-manifest", "-manifest"},
}

// Telemetry holds nmsim's telemetry flags: the epoch must be a positive
// unit-suffixed duration, read only when an export is on.
var Telemetry = []Case{
	{"bad epoch", "-telemetry-out x.json -telemetry-epoch 10", "-telemetry-epoch", "-telemetry-out"},
	{"zero epoch", "-telemetry-out x.json -telemetry-epoch 0ns", "-telemetry-epoch", "-telemetry-out"},
	{"negative epoch", "-telemetry-csv x.csv -telemetry-epoch -5us", "-telemetry-epoch", "-telemetry-csv"},
	{"valid chrome", "-telemetry-out x.json -telemetry-epoch 50us", "", "-telemetry-out"},
	{"valid csv only", "-telemetry-csv x.csv", "", "-telemetry-csv"},
	{"epoch ignored when off", "-telemetry-epoch 10", "", "-telemetry-epoch"},
}

// Supervision holds sweep's supervision flags.
var Supervision = []Case{
	{"resume without manifest", "-resume", "-resume", "-resume requires -manifest"},
	{"resume with manifest", "-resume -manifest m.json", "-resume", ""},
	{"negative retries", "-retries -1", "-retries", "-retries"},
	{"negative timeout", "-timeout -1s", "-timeout", "-timeout"},
	{"valid supervision", "-manifest m.json -retries 2 -retry-seed 9 -timeout 30s", "-manifest", ""},
	// -slice is gone: a supervised replay polls for cancellation every
	// 2^16 events, a harness constant no flag sets.
	{"slice", "-slice 4096", "-slice", "-slice"},
}

// Epoch holds sweep's -epoch, read by -exp=timeline only.
var Epoch = []Case{
	{"bad epoch", "-exp timeline -epoch 10", "-exp", "-epoch"},
	{"zero epoch", "-exp timeline -epoch 0us", "-exp", "-epoch"},
	{"valid epoch", "-exp timeline -epoch 2us", "-exp", ""},
	{"epoch ignored elsewhere", "-exp cores -epoch 10", "-exp", ""},
}

// Run parses args through c and runs them under ctx, failing t on a bad
// command line or a run error. It returns the report and the failed count.
func Run(t *testing.T, ctx context.Context, c cli.Command, args ...string) (string, int) {
	t.Helper()
	o, err := c.Parse(args, io.Discard)
	if err != nil {
		t.Fatalf("%s %v: %v", c.Name, args, err)
	}
	var b strings.Builder
	failed, err := o.Run(ctx, &b)
	if err != nil {
		t.Fatalf("%s %v: run: %v", c.Name, args, err)
	}
	return b.String(), failed
}

// Request returns the request c builds from args: the one it sends a
// daemon, caught by running the line with -server against a stub.
func Request(t *testing.T, c cli.Command, args ...string) serve.SweepRequest {
	t.Helper()
	sent := make(chan serve.SweepRequest, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sent <- req
	}))
	defer hs.Close()
	Run(t, context.Background(), c, append(args, "-server", hs.URL)...)
	return <-sent
}

// RunCancelled runs a small command line of c's under a context cancelled
// before the run: the report is still written, with every cell marked
// cancelled and counted failed.
func RunCancelled(t *testing.T, c cli.Command) {
	if testing.Short() {
		t.Skip("full replay")
	}
	args := map[string]string{"nmsim": "-n 4096 -cores 8 -sp 1", "sweep": "-exp dma -n 4096 -cores 8 -sp 1"}[c.Name]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, failed := Run(t, ctx, c, strings.Fields(args)...)
	if failed == 0 {
		t.Fatal("cancelled run reported no failed cells")
	}
	if !strings.Contains(out, "[cancelled]") {
		t.Errorf("report missing cancelled marks:\n%s", out)
	}
}
