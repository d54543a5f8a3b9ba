package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// compTopology builds a cluster-shaped network: per-tenant PCIe links plus
// a handful of shared channels, so routes form several coupling groups that
// merge and split as flows come and go.
func compTopology(n *Network, tenants int) (pcie []*Resource, shared []*Resource) {
	for _, name := range []string{"ssd-read", "ssd-write", "host-in", "host-out"} {
		shared = append(shared, n.AddResource(name, units.GBps(4)))
	}
	for i := 0; i < tenants; i++ {
		pcie = append(pcie, n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16)))
	}
	return pcie, shared
}

// driveDifferential replays one pseudo-random op sequence on two networks
// and fails if their observable state (rates, next event, clock, remaining
// bytes) ever diverges, or if either breaks the max-min certificate,
// per-flow byte conservation or its rate-class index (checkClasses). mutate configures each network before the
// run. It returns how many of the steps ended in a dut recompute that
// refilled fewer flows than were active.
func driveDifferential(t *testing.T, seed int64, mutate func(ref, dut *Network)) (partial int) {
	t.Helper()
	const tenants = 10
	ref, dut := New(), New()
	refP, refS := compTopology(ref, tenants)
	dutP, dutS := compTopology(dut, tenants)
	mutate(ref, dut)
	refL, dutL := newByteLedger(ref), newByteLedger(dut)

	rng := rand.New(rand.NewSource(seed))
	var refFlows, dutFlows []*Flow
	check := func(op string) {
		t.Helper()
		checkMaxMin(t, ref)
		checkMaxMin(t, dut)
		mustCheckClasses(t, ref)
		mustCheckClasses(t, dut)
		refL.check(t)
		dutL.check(t)
		if rn, dn := ref.NextEvent(), dut.NextEvent(); rn != dn {
			t.Fatalf("%s: NextEvent %v (ref) vs %v (dut)", op, rn, dn)
		}
		for i := range refFlows {
			if rr, dr := refFlows[i].Rate(), dutFlows[i].Rate(); rr != dr {
				t.Fatalf("%s: flow %d rate %v (ref) vs %v (dut)", op, i, rr, dr)
			}
			if refFlows[i].Remaining() != dutFlows[i].Remaining() {
				t.Fatalf("%s: flow %d remaining diverged", op, i)
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // start a flow on a tenant route
			ti := rng.Intn(tenants)
			si := rng.Intn(len(refS))
			size := units.Bytes(1+rng.Intn(64)) * units.MB
			delay := units.Duration(rng.Intn(3)) * units.Millisecond
			at := ref.Now() + units.Time(delay)
			label := fmt.Sprintf("f%d", step)
			var rRoute, dRoute []*Resource
			rRoute = append(rRoute, refP[ti], refS[si])
			dRoute = append(dRoute, dutP[ti], dutS[si])
			if rng.Intn(3) == 0 { // occasionally a 3-hop route bridging groups
				sj := rng.Intn(len(refS))
				rRoute = append(rRoute, refS[sj])
				dRoute = append(dRoute, dutS[sj])
			}
			refFlows = append(refFlows, refL.track(ref.StartAt(label, size, at, nil, rRoute...)))
			dutFlows = append(dutFlows, dutL.track(dut.StartAt(label, size, at, nil, dRoute...)))
		case 5: // capacity change on a shared channel
			si := rng.Intn(len(refS))
			bw := units.GBps(1 + float64(rng.Intn(8)))
			ref.SetCapacity(refS[si], bw)
			dut.SetCapacity(dutS[si], bw)
		default: // advance toward (sometimes past) the next event
			d := units.Duration(1+rng.Intn(2000)) * units.Microsecond
			to := ref.Now() + units.Time(d)
			if e := ref.NextEvent(); rng.Intn(2) == 0 && e < units.Forever {
				to = e
			}
			rDone := refL.advance(t, to)
			dDone := dutL.advance(t, to)
			if len(rDone) != len(dDone) {
				t.Fatalf("advance: %d completions (ref) vs %d (dut)", len(rDone), len(dDone))
			}
			for i := range rDone {
				if rDone[i].Label != dDone[i].Label || rDone[i].CompletedAt != dDone[i].CompletedAt {
					t.Fatalf("advance: completion %d diverged: %s@%v vs %s@%v",
						i, rDone[i].Label, rDone[i].CompletedAt, dDone[i].Label, dDone[i].CompletedAt)
				}
			}
		}
		before := dut.Recomputes()
		check(fmt.Sprintf("step %d", step))
		if dut.Recomputes() > before && len(dut.touched) < len(dut.active) {
			partial++
		}
	}
	return partial
}

// TestComponentFillMatchesGlobal: the component-decomposed recompute (with
// dirty-component skipping) must be bit-identical to the direct global fill
// on randomized cluster-shaped traffic.
func TestComponentFillMatchesGlobal(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			driveDifferential(t, seed, func(ref, dut *Network) {
				ref.forceGlobalFill = true
			})
		})
	}
}

// TestDirtySkipActuallySkips pins the perf mechanism itself: completing a
// flow in one coupling group must not re-key rates of flows in another —
// their entries keep rate == prevRate through the recompute.
func TestDirtySkipActuallySkips(t *testing.T) {
	n := New()
	a := n.AddResource("a", units.GBps(4))
	b := n.AddResource("b", units.GBps(4))
	var groupA, groupB []*Flow
	for i := 0; i < 10; i++ {
		groupA = append(groupA, n.Start(fmt.Sprintf("a%d", i), 100*units.MB, nil, a))
		groupB = append(groupB, n.Start(fmt.Sprintf("b%d", i), units.Bytes(10+i)*units.MB, nil, b))
	}
	n.NextEvent() // derive initial rates
	rateA := groupA[0].Rate()
	// Complete group B's shortest flow; group A's component is clean.
	n.AdvanceTo(n.NextEvent())
	if got := groupA[0].Rate(); got != rateA {
		t.Fatalf("group A rate changed from %v to %v without a group A event", rateA, got)
	}
	for _, f := range groupA {
		if f.rate != f.prevRate {
			t.Errorf("clean-component flow %s was re-filled (rate %v, prevRate %v)", f.Label, f.rate, f.prevRate)
		}
	}
	if !groupB[0].Done() {
		t.Fatal("group B flow did not complete")
	}
}
