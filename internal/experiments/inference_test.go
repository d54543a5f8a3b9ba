package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"g10sim/internal/gpu"
)

// TestInferenceFigureDeterministic is the experiments-level serving
// differential: the printed inference figure must be byte-identical across
// prewarm worker counts — the worker pool changes wall time only, never a
// number. Each count runs a fresh session so the single-flight caches cannot
// mask a divergence.
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

// TestInferenceCellDriversMatch closes the driver differential at figure
// scale: every short-mode cell re-run under the polling reference scheduler
// must reproduce the event driver's result exactly.
func TestInferenceCellDriversMatch(t *testing.T) {
	s := NewSession(Options{Short: true})
	for _, n := range s.inferenceSizes() {
		for _, pol := range inferencePolicies() {
			runWith := func(driver gpu.Driver) gpu.InferenceResult {
				p := s.inferenceParams(pol, n)
				p.Driver = driver
				res, err := gpu.RunInference(p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if want, got := runWith(gpu.DriverAuto), runWith(gpu.DriverPolling); !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: polling driver diverged from events", pol.Name(), n)
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
