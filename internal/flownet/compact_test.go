package flownet

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// TestSegLogCompactionDifferential drives the lazy engine across the
// 1024-segment compaction threshold and checks per-flow byte conservation
// through it. A polling loop advances in 20µs slices so the segment log
// grows by one entry per slice; a steady long flow and a churning short
// flow share an SSD channel, so compaction fires with both flows in flight
// and must settle them without losing or inventing a byte. The boundary was
// previously only crossed incidentally by long differentials; this test
// asserts the compaction actually happened.
func TestSegLogCompactionDifferential(t *testing.T) {
	n := New()
	ssd := n.AddResource("ssd", units.GBps(4))
	p1 := n.AddResource("gpu1/pcie", units.GBps(16))
	p2 := n.AddResource("gpu2/pcie", units.GBps(16))
	l := newByteLedger(n)
	l.track(n.Start("steady", 2*units.GB, nil, p1, ssd))
	l.track(n.Start("churn", 96*units.MB, nil, p2, ssd))

	rng := rand.New(rand.NewSource(7))
	const step = 20 * units.Microsecond
	const steps = 4000
	for i := 0; i < steps; i++ {
		to := min(n.Now()+step, n.NextEvent())
		for _, f := range l.advance(t, to) {
			// Restart the churned flow on its original route with a fresh
			// size.
			size := units.Bytes(64+rng.Intn(64)) * units.MB
			l.track(n.Start(f.Label, size, nil, f.Route()...))
		}
		if i%1250 == 1249 {
			l.check(t)
		}
	}
	if n.segBase == 0 {
		t.Fatalf("lazy log never crossed the %d-segment compaction threshold (%d steps)", segLogCompactLimit, steps)
	}
	l.check(t)
}
