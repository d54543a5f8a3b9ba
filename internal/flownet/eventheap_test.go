package flownet

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// refNextEvent is the O(active) linear scan NextEvent used to be: the
// earliest dormant activation or active-flow completion, evaluated directly.
func refNextEvent(n *Network) units.Time {
	next := units.Forever
	if len(n.dormant) > 0 {
		next = units.MinTime(next, n.dormant[0].StartAt)
	}
	for _, f := range n.active {
		next = units.MinTime(next, n.completionTime(f))
	}
	return next
}

// TestNextEventMatchesLinearScan drives random traffic through the network
// and asserts the heap-backed NextEvent always returns exactly what the
// reference scan computes — including between events, where completion
// times are re-derived from a moved clock — and that the rate-class index
// stays consistent (checkClasses). TestNextEventMatchesLinearScanGiant
// runs the same differential on giant-component churn.
func TestNextEventMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := New()
		var res []*Resource
		for i := 0; i < 3; i++ {
			res = append(res, n.AddResource(string(rune('a'+i)), units.GBps(0.5+4*rng.Float64())))
		}
		launch := func() {
			route := []*Resource{res[rng.Intn(len(res))]}
			if rng.Intn(2) == 0 {
				if r2 := res[rng.Intn(len(res))]; r2 != route[0] {
					route = append(route, r2)
				}
			}
			size := units.Bytes(rng.Intn(64)+1) * units.MB
			delay := units.Duration(rng.Intn(2_000_000)) // up to 2ms
			n.StartAt("f", size, n.Now()+delay, nil, route...)
		}
		// Hold a large active population so the heap path (not the
		// small-set linear fallback) is exercised.
		for i := 0; i < 4*compHeapThreshold; i++ {
			launch()
		}
		for step := 0; step < 200; step++ {
			if rng.Intn(3) == 0 {
				launch()
			}
			if got, want := n.NextEvent(), refNextEvent(n); got != want {
				t.Fatalf("trial %d step %d: NextEvent = %v, linear scan %v", trial, step, got, want)
			}
			mustCheckClasses(t, n)
			// Advance either exactly to the next event, past it, or to a
			// mid-interval point (clock moves without any event firing).
			e := n.NextEvent()
			var to units.Time
			switch rng.Intn(3) {
			case 0:
				if e == units.Forever {
					to = n.Now() + units.Millisecond
				} else {
					to = e
				}
			case 1:
				to = n.Now() + units.Duration(rng.Intn(5_000_000))
			default:
				if e == units.Forever || e <= n.Now()+1 {
					to = n.Now() + 1
				} else {
					to = n.Now() + (e-n.Now())/2
				}
			}
			n.AdvanceTo(to)
			if got, want := n.NextEvent(), refNextEvent(n); got != want {
				t.Fatalf("trial %d step %d (post-advance): NextEvent = %v, linear scan %v", trial, step, got, want)
			}
			mustCheckClasses(t, n)
		}
	}
}

// TestSetCapacityNoOpKeepsRates asserts the allocation-reuse fast path:
// re-setting the current capacity must not disturb rates or events.
func TestSetCapacityNoOpKeepsRates(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(10))
	a := n.Start("a", 10*units.GB, nil, link)
	b := n.Start("b", 20*units.GB, nil, link)
	e0, ra, rb := n.NextEvent(), a.Rate(), b.Rate()
	n.SetCapacity(link, units.GBps(10)) // unchanged: reuse allocations
	if a.Rate() != ra || b.Rate() != rb {
		t.Errorf("no-op SetCapacity changed rates: %v/%v -> %v/%v", ra, rb, a.Rate(), b.Rate())
	}
	if e := n.NextEvent(); e != e0 {
		t.Errorf("no-op SetCapacity moved NextEvent: %v -> %v", e0, e)
	}
	n.SetCapacity(link, units.GBps(5)) // a real change must re-derive
	if got := a.Rate().GBpsValue(); got != 2.5 {
		t.Errorf("rate after halving = %v, want 2.5", got)
	}
}

// TestDormantPopResetsHeapIndex guards the dormantHeap bookkeeping: a
// popped flow must not retain a live heap index.
func TestDormantPopResetsHeapIndex(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(1))
	f := n.StartAt("late", units.MB, 100*units.Microsecond, nil, link)
	if f.heapIdx != 0 {
		t.Fatalf("dormant flow heapIdx = %d, want 0", f.heapIdx)
	}
	n.AdvanceTo(200 * units.Microsecond)
	if f.heapIdx != -1 {
		t.Errorf("popped flow heapIdx = %d, want -1", f.heapIdx)
	}
}
