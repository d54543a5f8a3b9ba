package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"g10sim/internal/gpu"
)

func readJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAppendTrajectoryKeepsHistory: appending a run must leave every
// existing entry as it was — including report keys benchReport does not
// know — and re-appending a label must replace its entry, not duplicate it.
func TestAppendTrajectoryKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.json")
	const seed = `{"format": 1, "entries": [
  {"label": "old", "note": "legacy", "report": {"suite": "g10bench-figures", "short": true, "workers": 1, "shards": 4,
    "benchmarks": [{"name": "figure-11", "ns": 5}], "total_ns": 5, "calibration_ns": 7}},
  {"label": "mid", "report": {"suite": "g10bench-figures", "short": true, "workers": 1, "benchmarks": [], "total_ns": 0}}
]}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readJSON(t, path)["entries"].([]any)

	rep := benchReport{Suite: "g10bench-figures", Short: true, Workers: 1, TotalNs: 11,
		Benchmarks: []benchRecord{{Name: "figure-11", Ns: 11}}}
	if err := appendTrajectory(path, "new", "first", rep); err != nil {
		t.Fatal(err)
	}
	rep.TotalNs = 22
	if err := appendTrajectory(path, "new", "second", rep); err != nil {
		t.Fatal(err)
	}

	after := readJSON(t, path)["entries"].([]any)
	if len(after) != len(before)+1 {
		t.Fatalf("got %d entries, want %d", len(after), len(before)+1)
	}
	for i := range before {
		if !reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("entry %d changed:\nbefore: %v\nafter:  %v", i, before[i], after[i])
		}
	}
	last := after[len(after)-1].(map[string]any)
	report := last["report"].(map[string]any)
	if last["label"] != "new" || last["note"] != "second" || report["total_ns"] != float64(22) {
		t.Errorf("re-appended entry not replaced: %v", last)
	}
}

// TestGateChecksEngineCounters: the gate fails, naming the counter, when an
// engine work counter differs from the baseline's, and passes when they
// match or when the baseline carries no counters.
func TestGateChecksEngineCounters(t *testing.T) {
	dir := t.TempDir()
	stats := gpu.EngineStats{FlowRecomputes: 10, FillRounds: 100, FillResScans: 400}
	cur := benchReport{Suite: "g10bench-figures", Short: true, Workers: 1,
		Benchmarks: []benchRecord{{Name: "figure-11", Ns: 1e6}}, TotalNs: 1e6, Engine: &stats}
	gate := func(mutate func(*benchReport)) (gateReport, error) {
		t.Helper()
		base := cur
		if mutate != nil {
			mutate(&base)
		}
		basePath := filepath.Join(dir, "base.json")
		outPath := filepath.Join(dir, "delta.json")
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(basePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		gerr := runGate(cur, basePath, outPath, 1.2)
		var rep gateReport
		data, err = os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep, gerr
	}

	if rep, err := gate(nil); err != nil || len(rep.EngineDrift) != 0 {
		t.Fatalf("identical baseline: err %v, drift %v", err, rep.EngineDrift)
	}
	if _, err := gate(func(b *benchReport) { b.Engine = nil }); err != nil {
		t.Fatalf("baseline without engine_stats: %v", err)
	}
	rep, err := gate(func(b *benchReport) {
		e := stats
		e.FillRounds++
		b.Engine = &e
	})
	if err == nil || !strings.Contains(err.Error(), "fill_rounds 101 -> 100") {
		t.Fatalf("off-by-one fill_rounds: err %v", err)
	}
	want := []counterDelta{{Name: "fill_rounds", Baseline: 101, Current: 100}}
	if !reflect.DeepEqual(rep.EngineDrift, want) {
		t.Errorf("delta report drift %v, want %v", rep.EngineDrift, want)
	}
}
