package flownet

import (
	"fmt"
	"math"
	"testing"

	"g10sim/internal/units"
)

// certTol is the certificate's relative slack: a later filling level's
// share can round one ulp below an earlier level's, and the clamped
// subtractions leave ulp-sized residue in a saturated resource's load.
const certTol = 1e-9

// checkMaxMin asserts the max-min optimality certificate on n's current
// allocation, independently of how the fill derived it: no busy resource
// carries more than its capacity, and every active flow crosses a
// saturated resource on which no flow has a higher rate (its bottleneck).
// An allocation with both properties is the unique max-min fair one.
// Loads count route occurrences, as the fill does: a route naming a
// resource twice loads it twice. Every comparison allows certTol slack.
func checkMaxMin(t *testing.T, n *Network) {
	t.Helper()
	n.flushRates()
	load := make(map[*Resource]float64)
	top := make(map[*Resource]float64)
	for _, f := range n.active {
		for _, r := range f.route {
			load[r] += f.rate
			top[r] = math.Max(top[r], f.rate)
		}
	}
	for r, sum := range load {
		if sum > r.capacity*(1+certTol) {
			t.Fatalf("max-min certificate: %s carries %v B/s over capacity %v", r.Name, sum, r.capacity)
		}
	}
	for _, f := range n.active {
		bottlenecked := false
		for _, r := range f.route {
			if load[r] >= r.capacity*(1-certTol) && top[r] <= f.rate*(1+certTol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("max-min certificate: flow %s at %v B/s has no saturated resource it is maximal on", f.Label, f.rate)
		}
	}
}

// traceTopology registers ch (80 GB/s) and the 40 per-tenant links of
// 1 GB/s whose flows through ch form a component above frontierMinFlows,
// so the first fill records a trace; each tenant link is its own
// bottleneck level, leaving ch 40 GB/s of headroom.
func traceTopology(n *Network) (ch *Resource, pcie []*Resource) {
	ch = n.AddResource("ch", units.GBps(80))
	for i := 0; i < 40; i++ {
		pcie = append(pcie, n.AddResource(fmt.Sprintf("p%d", i), units.GBps(1)))
	}
	for i, p := range pcie {
		n.Start(fmt.Sprintf("bg%d", i), 10*units.GB, nil, p, ch)
	}
	return ch, pcie
}

// TestIdleTracedCapacityCutDropsTrace: a traced resource that has gone
// idle and then has its capacity cut must not keep feeding its recorded
// capacity to later frontier refills. The cut's recompute cannot be a
// frontier refill (capacity changed), and the component discovery it
// falls back to must still see the idle resource as overlapping the
// trace.
func TestIdleTracedCapacityCutDropsTrace(t *testing.T) {
	n := New()
	ch, _ := traceTopology(n)
	side := n.AddResource("side", units.GBps(8))
	short := n.Start("short", units.MB, nil, side, ch)
	checkMaxMin(t, n)
	n.AdvanceTo(n.NextEvent())
	if !short.Done() {
		t.Fatal("short flow did not complete at the first event")
	}
	checkMaxMin(t, n)
	n.SetCapacity(side, units.GBps(0.25))
	checkMaxMin(t, n)
	f := n.Start("late", units.GB, nil, side, ch)
	checkMaxMin(t, n)
	if got, want := f.Rate(), units.GBps(0.25); got != want {
		t.Fatalf("flow on the cut link runs at %v, want its capacity %v", got, want)
	}
}

// TestIdleTracedResourceBesideCapacityChange: a traced resource loses its
// last flow in the same event as a capacity change on an untraced busy
// resource. That recompute falls back to component discovery and drops
// the completion's delta record, so the trace must go with it, or the
// departed flow stays counted on the resource in every later frontier
// refill.
func TestIdleTracedResourceBesideCapacityChange(t *testing.T) {
	n := New()
	ch, _ := traceTopology(n)
	s := n.AddResource("s", units.GBps(8))
	u := n.AddResource("u", units.GBps(4))
	n.Start("via-ch", units.MB, nil, s, ch)
	last := n.Start("last", 64*units.MB, nil, s)
	n.Start("untraced", 10*units.GB, nil, u)
	checkMaxMin(t, n)
	for !last.Done() {
		n.AdvanceEventwise(n.NextEvent(), func(done []*Flow) {
			for _, f := range done {
				if f == last {
					n.SetCapacity(u, units.GBps(2))
				}
			}
		})
		checkMaxMin(t, n)
	}
	f := n.Start("late", units.GB, nil, s, ch)
	checkMaxMin(t, n)
	if got, want := f.Rate(), units.GBps(8); got != want {
		t.Fatalf("flow on the idle traced link runs at %v, want its capacity %v", got, want)
	}
}
