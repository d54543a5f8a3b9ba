package flownet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"g10sim/internal/units"
)

// checkClasses checks the rate-class index against the allocation it
// indexes, after flushing rates as NextEvent would. While the completion
// heap is in use:
//   - every active flow is in exactly the class of its bottleneck, and
//     Network.classes lists exactly the non-empty classes;
//   - a class's members share one rate, the one its key was computed at,
//     hold their slots, and keep heap order by remaining (a loose class
//     only its least member first);
//   - each non-empty class has exactly one live completion entry, keyed on
//     its head within completionSlack of the head's completion time now
//     (a head below the completion threshold completes now; its key may
//     sit up to reapSlack later).
//
// While the heap is down, no flow is in a class.
func checkClasses(n *Network) error {
	n.flushRates()
	if !n.heapMode {
		for _, f := range n.active {
			if f.cls != nil {
				return fmt.Errorf("flow %s is in a class while the completion heap is down", f.Label)
			}
		}
		if len(n.classes) != 0 {
			return fmt.Errorf("%d classes listed while the completion heap is down", len(n.classes))
		}
		return nil
	}
	for _, f := range n.active {
		if f.cls == nil || f.cls != &f.bneck.cls {
			return fmt.Errorf("flow %s is not in the class of its bottleneck %s", f.Label, f.bneck.Name)
		}
	}
	members := 0
	for i, c := range n.classes {
		if int(c.slot) != i || len(c.members) == 0 {
			return fmt.Errorf("class %d: slot %d, %d members", i, c.slot, len(c.members))
		}
		members += len(c.members)
		for j, f := range c.members {
			if !f.active || f.cls != c || int(f.clsIdx) != j {
				return fmt.Errorf("class member %s: active %v, slot %d at %d", f.Label, f.active, f.clsIdx, j)
			}
			if f.rate != c.rate {
				return fmt.Errorf("class of %s: member %s runs at %v, the class was keyed at %v",
					f.bneck.Name, f.Label, f.rate, c.rate)
			}
			if j == 0 {
				continue
			}
			p := (j - 1) / 2
			if c.loose {
				p = 0
			}
			if n.remLess(f, c.members[p]) {
				return fmt.Errorf("class of %s: member %s (%v bytes left) sits below %s (%v)",
					f.bneck.Name, f.Label, f.remaining, c.members[p].Label, c.members[p].remaining)
			}
		}
	}
	if members != len(n.active) {
		return fmt.Errorf("classes hold %d members, %d flows are active", members, len(n.active))
	}
	live := make(map[*rateClass]int)
	for _, e := range n.comp {
		if e.stale() {
			continue
		}
		live[e.c]++
		h := e.c.members[0]
		if e.c.head != h || e.id != h.ID {
			return fmt.Errorf("class of %s: live entry keyed on flow %d, its head is %s", h.bneck.Name, e.id, h.Label)
		}
		at, slack := n.completionTime(h), units.Time(completionSlack)
		if at == n.now {
			slack = reapSlack
		}
		if at == units.Forever || e.at == units.Forever {
			if at != e.at {
				return fmt.Errorf("class of %s: key %v, head completes at %v", h.bneck.Name, e.at, at)
			}
		} else if e.at < at-units.Time(completionSlack) || e.at > at+slack {
			return fmt.Errorf("class of %s: key %v, head completes at %v", h.bneck.Name, e.at, at)
		}
	}
	for _, c := range n.classes {
		if live[c] != 1 {
			return fmt.Errorf("class of %s has %d live completion entries", c.members[0].bneck.Name, live[c])
		}
	}
	return nil
}

// mustCheckClasses fails the test when n's class index is inconsistent.
func mustCheckClasses(t *testing.T, n *Network) {
	t.Helper()
	if err := checkClasses(n); err != nil {
		t.Fatal(err)
	}
}

// giantChurn drives one giant component, every flow crossing one of two
// shared channels, through the op stream of the cluster drivers: dormant
// and immediate starts, deliveries that Succeed their flow or let it end
// (with a Rate query forcing a recompute first, now and then), Abort of a
// live flow, SetCapacity on a shared channel, and advances to, past and
// short of the next event. After every op, NextEvent must equal the linear
// scan over the active set, the allocation must pass the max-min
// certificate, and, if checked, the class index checkClasses. It returns
// the first violation.
func giantChurn(seed int64, tenants, steps int, checked bool, mutate func(n *Network)) error {
	n := New()
	mutate(n)
	shared := []*Resource{n.AddResource("chanA", units.GBps(4)), n.AddResource("chanB", units.GBps(4))}
	var pcie []*Resource
	for i := 0; i < tenants; i++ {
		pcie = append(pcie, n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(0.1+0.1*float64(i%5))))
	}
	rng := rand.New(rand.NewSource(seed))
	var live []*Flow
	start := func(label string) {
		size := units.Bytes(1+rng.Intn(32)) * units.MB
		at := n.Now() + units.Time(units.Duration(rng.Intn(2))*units.Millisecond)
		live = append(live, n.StartAt(label, size, at, nil, pcie[rng.Intn(tenants)], shared[rng.Intn(2)]))
	}
	for i := 0; i < 3*compHeapThreshold; i++ {
		start(fmt.Sprintf("s%d", i))
	}
	drop := func(f *Flow) {
		for i, g := range live {
			if g == f {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	for step := 0; step < steps; step++ {
		op := ""
		switch k := rng.Intn(10); {
		case k < 3:
			op = "start"
			start(fmt.Sprintf("f%d", step))
		case k == 3:
			op = "abort"
			if len(live) > 0 {
				f := live[rng.Intn(len(live))]
				n.Abort(f)
				drop(f)
			}
		case k == 4:
			op = "capacity"
			n.SetCapacity(shared[rng.Intn(2)], units.GBps(2+float64(rng.Intn(6))))
		default:
			op = "advance"
			e := n.NextEvent()
			to := n.Now() + units.Time(units.Duration(1+rng.Intn(1500))*units.Microsecond)
			switch {
			case e < units.Forever && k < 8:
				to = e
			case e < units.Forever && k == 8 && e > n.Now()+1:
				to = n.Now() + (e-n.Now())/2
			}
			n.AdvanceEventwise(to, func(done []*Flow) {
				for _, f := range done {
					if rng.Intn(4) == 0 && len(live) > 1 {
						_ = live[0].Rate()
					}
					if rng.Intn(2) == 0 {
						n.Succeed(f, units.Bytes(1+rng.Intn(16))*units.MB)
					} else {
						drop(f)
						n.Release(f)
					}
				}
			})
		}
		if got, want := n.NextEvent(), refNextEvent(n); got != want {
			return fmt.Errorf("step %d (%s): NextEvent = %v, linear scan %v", step, op, got, want)
		}
		if checked {
			if err := checkClasses(n); err != nil {
				return fmt.Errorf("step %d (%s): %v", step, op, err)
			}
		}
		if err := n.CheckMaxMin(); err != nil {
			return fmt.Errorf("step %d (%s): %v", step, op, err)
		}
	}
	return nil
}

// TestNextEventMatchesLinearScanGiant: on giant-component churn with
// Succeed, Abort and SetCapacity, NextEvent over class heads equals the
// linear scan over every active flow, and the class index stays
// consistent. The tenant links' capacities sit near the channels' shares,
// so capacity changes and arrivals move flows between classes one by one
// as well as regroup whole components.
func TestNextEventMatchesLinearScanGiant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if err := giantChurn(seed, 24, 600, true, func(*Network) {}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestClassRekeyMutationCaught: a class index that skips the re-key when
// only a class's rate changed keeps a stale completion key. On every seed,
// checkClasses must catch it, and so must the linear-scan differential on
// its own.
func TestClassRekeyMutationCaught(t *testing.T) {
	stale := func(n *Network) { n.staleClassKeys = true }
	for seed := int64(1); seed <= 4; seed++ {
		if err := giantChurn(seed, 24, 600, true, stale); err == nil {
			t.Errorf("seed %d: stale class keys passed checkClasses", seed)
		}
		err := giantChurn(seed, 24, 600, false, stale)
		if err == nil || !strings.Contains(err.Error(), "linear scan") {
			t.Errorf("seed %d: stale class keys: differential reported %v, want a NextEvent divergence", seed, err)
		}
	}
}

// TestClassesKeepOneEntryPerBottleneck pins the perf mechanism itself: on
// a fleet-shaped component, a recompute re-keys one completion entry per
// changed class, not one per re-rated flow, so the heap holds about as
// many live entries as there are bottlenecks.
func TestClassesKeepOneEntryPerBottleneck(t *testing.T) {
	n := New()
	ch := n.AddResource("ssd-read", units.GBps(4))
	for i := 0; i < 64; i++ {
		p := n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16))
		n.Start(fmt.Sprintf("f%d", i), units.Bytes(8+i)*units.MB, nil, p, ch)
	}
	mustCheckClasses(t, n)
	if len(n.classes) != 1 || len(n.comp) != 1 {
		t.Fatalf("64 flows frozen at one channel: %d classes, %d heap entries; want 1 and 1", len(n.classes), len(n.comp))
	}
	// An arrival re-rates all 64 flows; the channel's class re-keys once.
	p := n.AddResource("late/pcie", units.GBps(16))
	n.Start("late", 32*units.MB, nil, p, ch)
	mustCheckClasses(t, n)
	if len(n.classes) != 1 || len(n.comp) > 2 {
		t.Fatalf("after an arrival: %d classes, %d heap entries; want 1 class and at most 2 entries", len(n.classes), len(n.comp))
	}
}
