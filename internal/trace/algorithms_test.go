package trace_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestBuilderMatchesReferenceOnAlgorithms records every algorithm the
// harness knows — the sorts, both k-means variants and the PEM sort — once,
// and holds every kind of image of each recording to the references
// (trace.CheckImageKinds): the two-pass encoder's bytes, the sequential
// writer's digest, the validate-only walk's verdict and footprint. Only the
// far-memory baselines never reach the scratchpad.
func TestBuilderMatchesReferenceOnAlgorithms(t *testing.T) {
	w := harness.Workload{N: 1 << 12, Seed: 2015, Threads: 8, SP: 128 * units.KiB} // kmeans-sp pins 128KiB of points
	for _, name := range harness.AlgorithmNames() {
		alg := harness.Algorithm(name)
		res, err := harness.Record(alg, w)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Trace.Streams != nil {
			t.Fatalf("%s: a recording must be sealed columns, not decoded streams", name)
		}
		if !trace.CheckImageKinds(t, name, res.Trace) {
			t.Fatalf("%s: the recording fails Validate", name)
		}
		far := alg == harness.AlgGNUSort || alg == harness.AlgGNUExact || alg == harness.AlgKMeansFar
		if got := res.Trace.NearBlind(); got != far {
			t.Fatalf("%s: NearBlind = %v, want %v", alg, got, far)
		}
	}
}
