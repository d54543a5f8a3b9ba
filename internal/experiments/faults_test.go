package experiments

import (
	"bytes"
	"io"
	"testing"
)

// TestFaultsFigureDeterministic is the acceptance differential for the
// fault study: the printed figure must be byte-identical across prewarm
// worker counts — the worker pool changes wall time only.
func TestFaultsFigureDeterministic(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		s := NewSession(Options{Short: true, W: &buf, Workers: workers})
		if _, err := Faults(s); err != nil {
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

// TestFaultsFigureShape pins the study's qualitative claims: crashes
// inflate the makespan and destroy work, restart loses more than
// checkpointing at the same crash schedule, and only checkpoint rows write
// snapshot traffic (attributed to per-model flash wear).
func TestFaultsFigureShape(t *testing.T) {
	s := NewSession(Options{Short: true, W: io.Discard})
	rows, err := Faults(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want baseline + 2 schedules x 2 recoveries = 5", len(rows))
	}
	base := rows[0]
	if base.Recovery != "none" || base.Crashes != 0 || base.Inflation != 1 || base.Goodput != 1 {
		t.Fatalf("baseline row malformed: %+v", base)
	}
	byRec := func(k int, rec string) FaultRow {
		for _, r := range rows[1:] {
			if r.Crashes == k && r.Recovery == rec {
				return r
			}
		}
		t.Fatalf("missing row k=%d recovery=%s", k, rec)
		return FaultRow{}
	}
	for _, r := range rows[1:] {
		if r.Inflation < 1 {
			t.Errorf("k=%d %s: inflation %.3f < 1", r.Crashes, r.Recovery, r.Inflation)
		}
		if r.Restarts == 0 || r.WastedSec <= 0 {
			t.Errorf("k=%d %s: restarts=%d wasted=%.2fs — crashes left no trace", r.Crashes, r.Recovery, r.Restarts, r.WastedSec)
		}
		if r.Goodput >= 1 || r.Goodput <= 0 {
			t.Errorf("k=%d %s: goodput %.3f outside (0,1)", r.Crashes, r.Recovery, r.Goodput)
		}
		switch r.Recovery {
		case "restart":
			if r.CheckpointGB != 0 {
				t.Errorf("k=%d restart row wrote %.2f GB of checkpoints", r.Crashes, r.CheckpointGB)
			}
		case "checkpoint":
			if r.CheckpointGB <= 0 {
				t.Errorf("k=%d checkpoint row wrote no snapshots", r.Crashes)
			}
		}
		var wear float64
		for _, gb := range r.WearByModelGB {
			wear += gb
		}
		if wear <= 0 {
			t.Errorf("k=%d %s: no per-model wear attributed", r.Crashes, r.Recovery)
		}
	}
	// Checkpointing never wastes more than restart; at the densest schedule
	// (shortest MTBF, tightest Young/Daly interval) it must win outright. At
	// sparse schedules the auto-interval can exceed a job's remaining
	// iterations, legitimately degenerating to restart.
	kDense := rows[len(rows)-1].Crashes
	for _, k := range []int{rows[1].Crashes, kDense} {
		re, ck := byRec(k, "restart"), byRec(k, "checkpoint")
		if ck.WastedSec > re.WastedSec {
			t.Errorf("k=%d: checkpoint wasted %.2fs > restart %.2fs", k, ck.WastedSec, re.WastedSec)
		}
		if k == kDense && ck.WastedSec >= re.WastedSec {
			t.Errorf("k=%d: checkpoint wasted %.2fs, restart %.2fs — want a strict win at the dense schedule", k, ck.WastedSec, re.WastedSec)
		}
	}
}
