package uvm

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// newRefTLB builds a TLB latched to the eager per-entry reference path.
func newRefTLB(sets, ways int, pageSize units.Bytes) *TLB {
	t := MustNewTLB(sets, ways, pageSize)
	t.reference = true
	return t
}

// TestTLBFlushCountsDroppedEntries pins Flush's counter semantics: one
// shootdown per entry actually dropped, none for an empty flush — in both
// the epoch and the eager reference modes, and with pending epoch
// shootdowns reconciled first so nothing is double-counted.
func TestTLBFlushCountsDroppedEntries(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func() *TLB
	}{
		{"epoch", func() *TLB { return MustNewTLB(4, 4, 4*units.KB) }},
		{"reference", func() *TLB { return newRefTLB(4, 4, 4*units.KB) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tlb := mode.mk()
			tlb.Flush()
			if _, _, sd := tlb.Stats(); sd != 0 {
				t.Fatalf("empty flush counted %d shootdowns", sd)
			}
			for i := uint64(0); i < 3; i++ {
				tlb.Insert(i<<12, PTE{Loc: InGPU, Addr: i})
			}
			tlb.Flush()
			if _, _, sd := tlb.Stats(); sd != 3 {
				t.Fatalf("flush of 3 live entries counted %d shootdowns, want 3", sd)
			}
			// A single-page invalidation already counted its entry; the
			// following flush may only count the survivor.
			tlb.Insert(0x1000, PTE{Loc: InGPU, Addr: 1})
			tlb.Insert(0x2000, PTE{Loc: InGPU, Addr: 2})
			tlb.Invalidate(0x1000)
			tlb.Flush()
			if _, _, sd := tlb.Stats(); sd != 5 {
				t.Fatalf("shootdowns = %d, want 5 (3 flushed + 1 invalidated + 1 flushed)", sd)
			}
			// A pending range shootdown reconciles inside Flush; each entry
			// is still counted exactly once.
			for i := uint64(0); i < 4; i++ {
				tlb.Insert(i<<12, PTE{Loc: InGPU, Addr: i})
			}
			tlb.InvalidateRange(0, 2)
			tlb.Flush()
			if _, _, sd := tlb.Stats(); sd != 9 {
				t.Fatalf("shootdowns = %d, want 9 (2 by range + 2 by flush on top of 5)", sd)
			}
		})
	}
}

// TestTLBEpochDifferential drives an epoch-mode TLB and the eager
// reference through identical random interleavings of Lookup, Insert,
// Invalidate, InvalidateRange, Flush, and Stats. Every lookup result and
// every observed (hits, misses, shootdowns) triple must match: the epoch
// path defers shootdown work, never changes what it resolves to. Each
// lookup is preceded by a Peek on both sides that must report what the
// lookup then resolves to; the Stats comparisons pin that Peek moved no
// counter, and the lookup outcomes that it moved no LRU order.
func TestTLBEpochDifferential(t *testing.T) {
	type shape struct{ sets, ways int }
	shapes := []shape{{4, 2}, {16, 4}, {64, 8}}
	const trials = 30
	const ops = 400
	for trial := 0; trial < trials; trial++ {
		sh := shapes[trial%len(shapes)]
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		ep := MustNewTLB(sh.sets, sh.ways, 4*units.KB)
		ref := newRefTLB(sh.sets, sh.ways, 4*units.KB)
		// A vpn space a few times the capacity forces conflict evictions
		// while keeping re-references (hits) likely.
		span := uint64(sh.sets * sh.ways * 3)
		va := func() uint64 { return (rng.Uint64() % span) << 12 }
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(100); {
			case k < 40:
				a := va()
				q1, qok1 := ep.Peek(a)
				q2, qok2 := ref.Peek(a)
				p1, ok1 := ep.Lookup(a)
				p2, ok2 := ref.Lookup(a)
				if ok1 != ok2 || p1 != p2 {
					t.Fatalf("trial %d op %d: Lookup(%#x) = %+v,%v (epoch) vs %+v,%v (reference)",
						trial, op, a, p1, ok1, p2, ok2)
				}
				if qok1 != ok1 || q1 != p1 || qok2 != ok2 || q2 != p2 {
					t.Fatalf("trial %d op %d: Peek(%#x) = %+v,%v (epoch) %+v,%v (reference), Lookup = %+v,%v",
						trial, op, a, q1, qok1, q2, qok2, p1, ok1)
				}
			case k < 70:
				a := va()
				pte := PTE{Loc: Location(rng.Intn(3)), Addr: rng.Uint64() % 1024}
				ep.Insert(a, pte)
				ref.Insert(a, pte)
			case k < 80:
				a := va()
				ep.Invalidate(a)
				ref.Invalidate(a)
			case k < 93:
				a := va()
				pages := int64(1 + rng.Intn(int(span)))
				ep.InvalidateRange(a, pages)
				ref.InvalidateRange(a, pages)
			case k < 96:
				ep.Flush()
				ref.Flush()
			default:
				h1, m1, s1 := ep.Stats()
				h2, m2, s2 := ref.Stats()
				if h1 != h2 || m1 != m2 || s1 != s2 {
					t.Fatalf("trial %d op %d: Stats = %d,%d,%d (epoch) vs %d,%d,%d (reference)",
						trial, op, h1, m1, s1, h2, m2, s2)
				}
			}
		}
		// Final sweep: every vpn resolves identically, then counters agree.
		for vpn := uint64(0); vpn < span; vpn++ {
			p1, ok1 := ep.Lookup(vpn << 12)
			p2, ok2 := ref.Lookup(vpn << 12)
			if ok1 != ok2 || p1 != p2 {
				t.Fatalf("trial %d final sweep: Lookup(vpn %d) = %+v,%v (epoch) vs %+v,%v (reference)",
					trial, vpn, p1, ok1, p2, ok2)
			}
		}
		h1, m1, s1 := ep.Stats()
		h2, m2, s2 := ref.Stats()
		if h1 != h2 || m1 != m2 || s1 != s2 {
			t.Fatalf("trial %d final: Stats = %d,%d,%d (epoch) vs %d,%d,%d (reference)",
				trial, h1, m1, s1, h2, m2, s2)
		}
		if ref.EpochShootdowns() != 0 {
			t.Fatalf("reference TLB counted %d epoch shootdowns", ref.EpochShootdowns())
		}
	}
}

// TestTLBEpochRangeOverflowReconciles drives more distinct pending ranges
// than maxTLBRanges to force the overflow reconcile, then verifies the
// structure stayed exact.
func TestTLBEpochRangeOverflowReconciles(t *testing.T) {
	ep := MustNewTLB(8, 4, 4*units.KB)
	ref := newRefTLB(8, 4, 4*units.KB)
	span := uint64(8 * 4 * 16)
	for i := uint64(0); i < span; i++ {
		pte := PTE{Loc: InGPU, Addr: i}
		ep.Insert(i<<12, pte)
		ref.Insert(i<<12, pte)
	}
	// Disjoint 2-page shootdowns at stride 4: each is a distinct range, so
	// the pending list crosses maxTLBRanges and reconciles mid-stream.
	// Interleaved lookups and re-inserts hit the overflow window itself —
	// entries stamped between ranges must survive the overflow reconcile
	// exactly as they survive the eager sweeps.
	for lo := uint64(0); lo+2 <= span; lo += 4 {
		ep.InvalidateRange(lo<<12, 2)
		ref.InvalidateRange(lo<<12, 2)
		if lo%16 == 8 {
			a := (lo - 4) << 12
			p1, ok1 := ep.Lookup(a)
			p2, ok2 := ref.Lookup(a)
			if ok1 != ok2 || p1 != p2 {
				t.Fatalf("mid-overflow Lookup(%#x) = %+v,%v (epoch) vs %+v,%v (reference)", a, p1, ok1, p2, ok2)
			}
			pte := PTE{Loc: InHost, Addr: lo}
			ep.Insert(a, pte)
			ref.Insert(a, pte)
		}
	}
	if int(span/4) <= maxTLBRanges {
		t.Fatalf("test needs >%d disjoint ranges to exercise overflow, got %d", maxTLBRanges, span/4)
	}
	if ep.EpochShootdowns() <= int64(maxTLBRanges) {
		t.Fatalf("only %d epoch shootdowns; the pending list never overflowed its %d-range cap",
			ep.EpochShootdowns(), maxTLBRanges)
	}
	for vpn := uint64(0); vpn < span; vpn++ {
		p1, ok1 := ep.Lookup(vpn << 12)
		p2, ok2 := ref.Lookup(vpn << 12)
		if ok1 != ok2 || p1 != p2 {
			t.Fatalf("Lookup(vpn %d) = %+v,%v (epoch) vs %+v,%v (reference)", vpn, p1, ok1, p2, ok2)
		}
	}
	h1, m1, s1 := ep.Stats()
	h2, m2, s2 := ref.Stats()
	if h1 != h2 || m1 != m2 || s1 != s2 {
		t.Fatalf("Stats = %d,%d,%d (epoch) vs %d,%d,%d (reference)", h1, m1, s1, h2, m2, s2)
	}
}
