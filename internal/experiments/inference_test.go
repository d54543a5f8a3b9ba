package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"g10sim/internal/gpu"
)

// TestInferenceFigureDeterministic is the experiments-level serving
// differential: the printed inference figure must be byte-identical across
// worker counts — the worker pool changes wall time only, never a number.
// Each count runs a fresh session so the single-flight caches cannot mask a
// divergence.
func TestInferenceFigureDeterministic(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		s := NewSession(Options{Short: true, W: &buf, Workers: workers})
		if _, err := Inference(s); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d drifted%s", workers, goldenDiff(want, buf.Bytes()))
		}
	}
}

// TestInferenceCellDriversMatch runs every short-mode serving cell under
// gpu.InferenceParams.Check (wake completeness, the max-min certificate and
// the KV block-pool and host-tier ledgers at every clock advance).
func TestInferenceCellDriversMatch(t *testing.T) {
	s := NewSession(Options{Short: true})
	for _, n := range s.inferenceSizes() {
		for _, pol := range inferencePolicies() {
			p := s.inferenceParams(pol, n)
			p.Check = true
			if _, err := gpu.RunInference(p); err != nil {
				t.Errorf("%s n=%d: %v", pol.Name(), n, err)
			}
		}
	}
}

// TestInferenceSessionEngineStats pins the session-level counter plumbing
// on the serving path: a tiered inference cell must fold its engine work
// counters (flownet fill rounds, lazy progress touches, reap scans) into
// the session totals that g10bench -json reports, and the memoized re-read
// must add nothing.
func TestInferenceSessionEngineStats(t *testing.T) {
	s := NewSession(Options{Short: true})
	tiered := inferencePolicies()[1]
	if !tiered.HostTier() {
		t.Fatalf("policy order changed: %s has no host tier", tiered.Name())
	}
	res, _, err := s.inferenceCell(tiered, 240)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloads == 0 {
		t.Fatal("tiered short cell performed no offloads; the trace is undersized")
	}
	es := s.EngineStats()
	if es.FillRounds <= 0 || es.ProgressTouches <= 0 || es.ReapScans <= 0 {
		t.Fatalf("inference run left session engine counters empty: %+v", es)
	}
	if _, _, err := s.inferenceCell(tiered, 240); err != nil {
		t.Fatal(err)
	}
	if again := s.EngineStats(); !reflect.DeepEqual(again, es) {
		t.Errorf("memoized cell re-read changed engine stats: %+v -> %+v", es, again)
	}
}
