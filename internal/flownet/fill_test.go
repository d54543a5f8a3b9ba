package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// TestHeapFillMatchesReference: the heap-driven fill must be bit-identical
// to the reference per-round scan loop on randomized cluster-shaped traffic
// — capacity changes, delayed arrivals, completions and all.
func TestHeapFillMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			driveDifferential(t, seed, func(ref, dut *Network) {
				ref.refFill = true
			})
		})
	}
}

// TestScopedRefillMatchesGlobal: refilling only the components a change
// dirtied must be bit-identical to refilling every active flow at every
// recompute. Both networks run the reference scan loop, so the only
// difference is the refill scope (dirty components vs one global
// component). The partial-refill assertion guards against the scoping
// silently refilling every active flow, in which case this test would only
// re-prove the reference fill.
func TestScopedRefillMatchesGlobal(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			partial := driveDifferential(t, seed, func(ref, dut *Network) {
				ref.forceGlobalFill = true
				dut.refFill = true
			})
			if partial == 0 {
				t.Fatal("every recompute refilled all active flows; the scoped refill skipped nothing")
			}
			t.Logf("steps ending in a partial refill: %d", partial)
		})
	}
}

// giantDifferential drives a one-giant-component workload — every flow
// crosses one of two shared channels, so all tenants couple — with
// mid-run arrivals, successive completion churn, and occasional capacity
// changes, comparing a heap-fill network against the reference fill
// after every step and checking both against the max-min certificate,
// per-flow byte conservation and their rate-class indexes.
func giantDifferential(t *testing.T, seed int64, tenants, steps int, mutate func(ref, dut *Network)) (*Network, *Network) {
	t.Helper()
	ref, dut := New(), New()
	build := func(n *Network) (pcie, shared []*Resource) {
		shared = append(shared, n.AddResource("chanA", units.GBps(4)), n.AddResource("chanB", units.GBps(4)))
		for i := 0; i < tenants; i++ {
			pcie = append(pcie, n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16)))
		}
		return pcie, shared
	}
	refP, refS := build(ref)
	dutP, dutS := build(dut)
	ref.refFill = true
	mutate(ref, dut)
	refL, dutL := newByteLedger(ref), newByteLedger(dut)

	rng := rand.New(rand.NewSource(seed))
	var refFlows, dutFlows []*Flow
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // start a 2-hop flow through a shared channel
			ti, si := rng.Intn(tenants), rng.Intn(2)
			size := units.Bytes(1+rng.Intn(32)) * units.MB
			at := ref.Now() + units.Time(units.Duration(rng.Intn(2))*units.Millisecond)
			label := fmt.Sprintf("f%d", step)
			refFlows = append(refFlows, refL.track(ref.StartAt(label, size, at, nil, refP[ti], refS[si])))
			dutFlows = append(dutFlows, dutL.track(dut.StartAt(label, size, at, nil, dutP[ti], dutS[si])))
		case 4: // rare capacity change (must force a full refill, correctly)
			if rng.Intn(4) == 0 {
				si := rng.Intn(2)
				bw := units.GBps(2 + float64(rng.Intn(6)))
				ref.SetCapacity(refS[si], bw)
				dut.SetCapacity(dutS[si], bw)
			}
		default:
			d := units.Duration(1+rng.Intn(1500)) * units.Microsecond
			to := ref.Now() + units.Time(d)
			if e := ref.NextEvent(); rng.Intn(2) == 0 && e < units.Forever {
				to = e
			}
			rDone := refL.advance(t, to)
			dDone := dutL.advance(t, to)
			if len(rDone) != len(dDone) {
				t.Fatalf("step %d: %d completions (ref) vs %d (dut)", step, len(rDone), len(dDone))
			}
		}
		checkMaxMin(t, ref)
		checkMaxMin(t, dut)
		mustCheckClasses(t, ref)
		mustCheckClasses(t, dut)
		refL.check(t)
		dutL.check(t)
		if rn, dn := ref.NextEvent(), dut.NextEvent(); rn != dn {
			t.Fatalf("step %d: NextEvent %v (ref) vs %v (dut)", step, rn, dn)
		}
		for i := range refFlows {
			if rr, dr := refFlows[i].Rate(), dutFlows[i].Rate(); rr != dr {
				t.Fatalf("step %d: flow %s rate %v (ref) vs %v (dut)", step, refFlows[i].Label, rr, dr)
			}
			if refFlows[i].Remaining() != dutFlows[i].Remaining() {
				t.Fatalf("step %d: flow %s remaining diverged", step, refFlows[i].Label)
			}
		}
	}
	return ref, dut
}

// TestFrontierGiantComponent: one giant coupling component with steady
// attach/detach churn, the fleet regime, where every recompute refills the
// whole component. The heap fill must stay bit-identical to the reference
// fill, max-min fair and byte-conserving. (The name is kept from the
// frontier-incremental refill this test once also pinned; DESIGN.md §13.)
func TestFrontierGiantComponent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, dut := giantDifferential(t, seed, 48, 500, func(ref, dut *Network) {})
			t.Logf("recomputes=%d rounds=%d resScans=%d",
				dut.Recomputes(), dut.FillRounds(), dut.FillResScans())
		})
	}
}

// TestFrontierGiantComponentParallel drives giant-component differentials
// on separate networks in parallel, as concurrent RunCluster calls do. Fill
// scratch and counters live on each Network, so each pair must match its
// reference fill and a second run of its seed; -race flags shared state.
func TestFrontierGiantComponentParallel(t *testing.T) {
	for seed := int64(5); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			_, dut := giantDifferential(t, seed, 32, 400, func(ref, dut *Network) {})
			_, again := giantDifferential(t, seed, 32, 400, func(ref, dut *Network) {})
			got := [2]int64{dut.FillRounds(), dut.FillResScans()}
			want := [2]int64{again.FillRounds(), again.FillResScans()}
			if got[0] == 0 || got != want {
				t.Fatalf("rounds/resScans %v, rerun %v: want equal and nonzero", got, want)
			}
		})
	}
}

// TestSucceedAfterCallbackRecompute pins a recompute between a flow's
// completion and its Succeed: the delivery callback starts a new flow and
// then queries NextEvent, whose recompute derives an allocation without the
// just-completed train flow. Only then does the callback call Succeed. The
// successor must not carry its predecessor's rate; it must enter as an
// arrival that dirties its route, or the next recompute skips its
// component and the allocation drifts from max-min. The differential
// against the reference fill must stay bit-identical through and past the
// corner.
func TestSucceedAfterCallbackRecompute(t *testing.T) {
	const tenants = 40 // one giant component coupled through chan
	seg := units.Bytes(8 * units.MB)
	run := func(refFill bool) (log []string, rates []units.Bandwidth) {
		n := New()
		n.refFill = refFill
		ch := n.AddResource("chan", units.GBps(4))
		var pcie []*Resource
		for i := 0; i < tenants; i++ {
			pcie = append(pcie, n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16)))
		}
		var bg []*Flow
		for i := 0; i < tenants; i++ {
			bg = append(bg, n.Start(fmt.Sprintf("bg%d", i), units.Bytes(8+i)*units.MB, nil, pcie[i], ch))
		}
		cur := n.Start("train", seg, nil, pcie[0], ch)
		boundaries, noise := 0, 0
		n.AdvanceEventwise(2*units.Second, func(done []*Flow) {
			for _, f := range done {
				// Every completion time in the run is part of the contract:
				// any allocation divergence surfaces at the first affected
				// completion, pinpointing where the legs split.
				log = append(log, fmt.Sprintf("%v %s", f.CompletedAt, f.Label))
				if f != cur {
					continue
				}
				boundaries++
				if boundaries >= 3 && boundaries <= 6 {
					// The corner, repeatedly: dirty the rates from inside the
					// callback, force a recompute, then succeed the train —
					// that allocation already dropped it, so the succession
					// must enter as an arrival.
					noise++
					n.Start(fmt.Sprintf("noise%d", noise), 2*units.MB, nil, pcie[noise], ch)
					_ = n.NextEvent()
					cur = n.Succeed(f, seg)
				} else if boundaries < 10 {
					cur = n.Succeed(f, seg)
				}
			}
		})
		if boundaries < 10 {
			t.Fatalf("train reached only %d boundaries, want 10", boundaries)
		}
		for _, f := range bg {
			rates = append(rates, f.Rate())
		}
		rates = append(rates, cur.Rate())
		return
	}
	refL, refR := run(true)
	dutL, dutR := run(false)
	if len(refL) != len(dutL) {
		t.Fatalf("completion count: reference %d, dut %d", len(refL), len(dutL))
	}
	for i := range refL {
		if refL[i] != dutL[i] {
			t.Fatalf("completion %d: %q (dut) vs %q (reference)", i, dutL[i], refL[i])
		}
	}
	for i := range refR {
		if refR[i] != dutR[i] {
			t.Errorf("flow %d rate %v (dut) vs %v (reference)", i, dutR[i], refR[i])
		}
	}
}

// TestFillCounters pins the perf mechanism itself, not just the result.
// On churn both fills select the same bottlenecks, so they count the same
// rounds; on a deep fill — per-tenant links all distinct bottlenecks, so
// filling runs one round per flow — the heap must examine far fewer
// resources than the reference's per-round full scan. (On shallow fills the
// two scan counts are comparable: one round freezing most flows touches
// most resources either way; the heap's win there is the adjacency-based
// candidate collection, measured by time in BenchmarkMaxMinFill.)
func TestFillCounters(t *testing.T) {
	ref, dut := giantDifferential(t, 9, 48, 500, func(ref, dut *Network) {})
	if ref.FillRounds() == 0 || dut.FillRounds() == 0 {
		t.Fatalf("fill rounds not counted: ref=%d dut=%d", ref.FillRounds(), dut.FillRounds())
	}
	if dut.FillRounds() != ref.FillRounds() {
		t.Errorf("heap fill ran %d rounds, reference %d: want the same bottleneck selections", dut.FillRounds(), ref.FillRounds())
	}
	t.Logf("churn: rounds ref=%d dut=%d; resScans ref=%d dut=%d",
		ref.FillRounds(), dut.FillRounds(), ref.FillResScans(), dut.FillResScans())

	// Deep fill: every tenant link is its own bottleneck level.
	deep := func(refFill bool) *Network {
		n := New()
		ch := n.AddResource("chan", units.GBps(1000))
		n.refFill = refFill
		for i := 0; i < 64; i++ {
			p := n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(float64(i+1)/1000))
			n.Start(fmt.Sprintf("f%d", i), 64*units.MB, nil, p, ch)
		}
		n.NextEvent()
		return n
	}
	dr, dd := deep(true), deep(false)
	if dd.FillResScans()*4 >= dr.FillResScans() {
		t.Errorf("deep fill: heap examined %d resources vs reference %d, want ≥4x fewer",
			dd.FillResScans(), dr.FillResScans())
	}
	t.Logf("deep fill: resScans ref=%d dut=%d (%.1fx)",
		dr.FillResScans(), dd.FillResScans(), float64(dr.FillResScans())/float64(dd.FillResScans()))
}
