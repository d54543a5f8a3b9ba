package flownet

import (
	"testing"

	"g10sim/internal/units"
)

// driveTrain advances a chunk train of `chunks` segments of seg bytes each
// on link, replacing each finished segment from the delivery callback —
// with Succeed when succeed is true, with a fresh StartAt otherwise (the
// per-chunk reference). It returns the per-segment completion times.
func driveTrain(n *Network, cur *Flow, seg units.Bytes, chunks int, horizon units.Time, succeed bool) []units.Time {
	var times []units.Time
	started := 1
	n.AdvanceEventwise(horizon, func(done []*Flow) {
		for _, f := range done {
			if f != cur {
				continue
			}
			times = append(times, f.CompletedAt)
			if started < chunks {
				started++
				if succeed {
					cur = n.Succeed(f, seg)
				} else {
					cur = n.StartAt(f.Label, seg, n.Now(), f.Data, f.route...)
				}
			}
		}
	})
	return times
}

// TestSuccessionMatchesChainedFlows: a conveyor train must complete every
// segment at exactly the time a chain of fresh per-segment flows would — in
// scan mode (few flows) and heap mode (many flows) alike.
func TestSuccessionMatchesChainedFlows(t *testing.T) {
	for _, tc := range []struct {
		name       string
		background int
	}{
		{"scan-mode", 2},
		{"heap-mode", 14}, // above compHeapThreshold: exercises the completion heap
	} {
		t.Run(tc.name, func(t *testing.T) {
			const chunks = 8
			seg := units.Bytes(64 * units.MB)
			run := func(succeed bool) ([]units.Time, int64) {
				n := New()
				link := n.AddResource("link", units.GBps(1))
				side := n.AddResource("side", units.GBps(1))
				for i := 0; i < tc.background; i++ {
					n.Start("bg", 100*units.GB, nil, link, side)
				}
				cur := n.Start("train", seg, nil, link)
				times := driveTrain(n, cur, seg, chunks, 30*units.Second, succeed)
				return times, n.Recomputes()
			}
			refTimes, refRecomputes := run(false)
			convTimes, convRecomputes := run(true)
			if len(refTimes) != chunks || len(convTimes) != chunks {
				t.Fatalf("completions: reference %d, conveyor %d, want %d", len(refTimes), len(convTimes), chunks)
			}
			for i := range refTimes {
				if refTimes[i] != convTimes[i] {
					t.Errorf("segment %d completed at %v via succession, %v via chained flows", i, convTimes[i], refTimes[i])
				}
			}
			if convRecomputes >= refRecomputes {
				t.Errorf("succession recomputed %d times, chained flows %d — the fast path never fired", convRecomputes, refRecomputes)
			}
		})
	}
}

// TestSuccessionPureTrainSkipsRecompute: while a train is the only thing
// changing, its boundaries cost no rate recomputation at all — the event
// count scales with rate-change points, not chunk count.
func TestSuccessionPureTrainSkipsRecompute(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(1))
	n.Start("bg", 100*units.GB, nil, link)
	const chunks = 16
	seg := units.Bytes(16 * units.MB)
	cur := n.Start("train", seg, nil, link)
	_ = n.NextEvent() // flush the start-up recompute
	r0 := n.Recomputes()
	times := driveTrain(n, cur, seg, chunks, 10*units.Second, true)
	if len(times) != chunks {
		t.Fatalf("train completed %d segments, want %d", len(times), chunks)
	}
	if got := n.Successions(); got != chunks-1 {
		t.Errorf("successions = %d, want %d (every boundary except the last)", got, chunks-1)
	}
	// Only the train's end — a genuine rate-change point — re-derives rates.
	if delta := n.Recomputes() - r0; delta > 1 {
		t.Errorf("pure train cost %d recomputes; want at most 1 (the final completion)", delta)
	}
}

// TestSuccessionSuppressedByThirdFlowStart: a third flow activating at
// exactly a chunk boundary changes the active set, so the in-place fast
// path must not fire there — rates are re-derived instead.
func TestSuccessionSuppressedByThirdFlowStart(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(1))
	seg := units.Bytes(units.GB) // alone on the link: exactly 1s per segment
	cur := n.Start("train", seg, nil, link)
	n.StartAt("third", units.GB, units.Second, nil, link) // lands on boundary 1
	boundaries := 0
	n.AdvanceEventwise(1500*units.Millisecond, func(done []*Flow) {
		for _, f := range done {
			if f == cur {
				boundaries++
				cur = n.Succeed(f, seg)
			}
		}
	})
	if boundaries == 0 {
		t.Fatal("train never reached a boundary")
	}
	if got := n.Successions(); got != 0 {
		t.Errorf("succession fired %d times despite a third flow starting mid-train", got)
	}
	// The re-derivation must have split the link between the two flows.
	if r := cur.Rate(); r != units.GBps(0.5) {
		t.Errorf("train rate after third flow joined = %v, want 0.5 GB/s", r)
	}
}

// TestSuccessionSuppressedByThirdFlowCompletion: a third flow finishing in
// the same completion batch as a chunk boundary frees bandwidth, so the
// fast path must not fire — the batch settles with a recompute.
func TestSuccessionSuppressedByThirdFlowCompletion(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(1))
	seg := units.Bytes(512 * units.MB)
	cur := n.Start("train", seg, nil, link)
	n.Start("third", 512*units.MB, nil, link) // same share, same completion instant
	var times []units.Time
	n.AdvanceEventwise(2*units.Second, func(done []*Flow) {
		for _, f := range done {
			if f != cur {
				continue
			}
			times = append(times, f.CompletedAt)
			if len(times) == 1 {
				cur = n.Succeed(f, seg)
			}
		}
	})
	if got := n.Successions(); got != 0 {
		t.Errorf("succession fired %d times despite a third flow completing mid-train", got)
	}
	if len(times) != 2 {
		t.Fatalf("train completed %d segments, want 2", len(times))
	}
	// Both flows at 0.5 GB/s finish at 1s; the successor then owns the whole
	// link and its 512MB segment takes exactly 0.5s more.
	if times[0] != units.Second || times[1] != 1500*units.Millisecond {
		t.Errorf("segment completions at %v, want [1s 1.5s]", times)
	}
}

// TestSucceedPanicsOnLiveFlow: succeeding a flow that has not completed is
// a caller bug.
func TestSucceedPanicsOnLiveFlow(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(1))
	f := n.Start("live", units.GB, nil, link)
	defer func() {
		if recover() == nil {
			t.Error("Succeed on a live flow did not panic")
		}
	}()
	n.Succeed(f, units.GB)
}
