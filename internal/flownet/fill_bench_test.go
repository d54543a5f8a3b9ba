package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// benchFillChurn measures steady-state attach/detach churn on a synthetic
// one-giant-component topology: F flows over 8 shared channels (each route
// crosses two channels, chaining all eight — and every tenant — into a
// single coupling component). Each iteration advances to the next
// completion and starts a replacement flow on the same route, so every
// iteration costs one detach, one attach, and one rate re-derivation —
// the fleet regime's hot loop.
func benchFillChurn(b *testing.B, F int, refFill bool) {
	n := New()
	n.refFill = refFill
	chans := make([]*Resource, 8)
	for i := range chans {
		chans[i] = n.AddResource(fmt.Sprintf("chan%d", i), units.GBps(4))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < F; i++ {
		p := n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16))
		size := units.Bytes(8+rng.Intn(64)) * units.MB
		n.Start(fmt.Sprintf("f%d", i), size, nil, p, chans[i%8], chans[(i+1)%8])
	}
	n.NextEvent() // derive the initial allocation outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := n.AdvanceTo(n.NextEvent())
		for _, f := range done {
			size := units.Bytes(8+rng.Intn(64)) * units.MB
			n.Start(f.Label, size, nil, f.route...)
		}
	}
}

// BenchmarkMaxMinFill is the per-churn-event cost of the heap-driven fill,
// across fleet sizes.
func BenchmarkMaxMinFill(b *testing.B) {
	for _, F := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("F=%d", F), func(b *testing.B) {
			benchFillChurn(b, F, false)
		})
	}
}

// BenchmarkMaxMinFillReference is the same workload on the retained
// reference fill (full scan loops) — the before side of the heap fill's
// speedup at F=10⁴.
func BenchmarkMaxMinFillReference(b *testing.B) {
	for _, F := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("F=%d", F), func(b *testing.B) {
			benchFillChurn(b, F, true)
		})
	}
}
