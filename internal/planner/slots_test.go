package planner

import (
	"testing"

	"g10sim/internal/units"
)

// TestTimelineMatchesSlotScan checks the timeline's searches against their
// definitions, scanned slot by slot over three laps: cyclicSlot(t) is the
// last global slot starting at or before t, and fullSlotSpan(from, to)
// holds exactly the slots that start at or after from and end at or before
// to. The axis has zero-length slots at both ends and in the middle.
func TestTimelineMatchesSlotScan(t *testing.T) {
	tl := newTimeline([]units.Time{0, 0, 3, 3, 7, 12, 12})
	n := tl.n
	startOf := func(g int) units.Time {
		lap := g / n
		if g%n < 0 {
			lap--
		}
		return tl.starts[tl.mod(g)] + units.Time(lap)*tl.total
	}
	for from := -2 * tl.total; from <= 2*tl.total; from++ {
		want := -3 * n
		for g := -3 * n; g < 3*n; g++ {
			if startOf(g) <= from {
				want = g
			}
		}
		if got := tl.cyclicSlot(from); got != want {
			t.Errorf("cyclicSlot(%d) = %d, want %d", from, got, want)
		}
		if from < 0 {
			continue // the planner's free windows start inside the iteration
		}
		for to := from - 2; to <= from+tl.total+2; to++ {
			g0, gEnd := tl.fullSlotSpan(from, to)
			for g := -n; g < 4*n; g++ {
				in := startOf(g) >= from && startOf(g+1) <= to
				if got := g >= g0 && g < gEnd; got != in {
					t.Fatalf("fullSlotSpan(%d, %d) = [%d, %d): slot %d in = %v, want %v",
						from, to, g0, gEnd, g, got, in)
				}
			}
		}
	}
}

// TestTimelineRunsCoverSpan checks that run splits a wrapped global span
// into kernel-slot pieces that end at iteration boundaries and visit every
// slot of the span once, in order.
func TestTimelineRunsCoverSpan(t *testing.T) {
	tl := newTimeline(evenStarts(5))
	for g0 := 0; g0 < 12; g0++ {
		for gEnd := g0; gEnd < g0+12; gEnd++ {
			g := g0
			for g < gEnd {
				k0, k1 := tl.run(g, gEnd)
				if k0 != tl.mod(g) || k1 <= k0 || k1 > tl.n {
					t.Fatalf("run(%d, %d) = [%d, %d)", g, gEnd, k0, k1)
				}
				g += k1 - k0
				if k1 < tl.n && g != gEnd {
					t.Fatalf("run(%d, %d) stopped at %d inside the iteration", g0, gEnd, k1)
				}
			}
			if g != gEnd {
				t.Fatalf("runs of [%d, %d) ended at %d", g0, gEnd, g)
			}
		}
	}
}
