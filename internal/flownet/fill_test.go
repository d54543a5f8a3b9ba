package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// TestHeapFillMatchesReference: the heap-driven fill (and, on top of it,
// the frontier refill) must be bit-identical to the reference per-round
// scan loop on randomized cluster-shaped traffic — capacity changes,
// delayed arrivals, completions and all.
func TestHeapFillMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			driveDifferential(t, seed, func(ref, dut *Network) {
				ref.refFill = true
			})
		})
	}
}

// TestFrontierRefillMatchesReference lowers the tracing threshold so the
// small differential topology actually records fill traces and serves
// recomputes from frontier refills, then pins bit-identity against the
// reference fill. The positive-reuse assertion guards against the refill
// path silently never firing (in which case this test would only re-prove
// the heap fill).
func TestFrontierRefillMatchesReference(t *testing.T) {
	reuses := int64(0)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var refNet, dutNet *Network
			driveDifferential(t, seed, func(ref, dut *Network) {
				ref.refFill = true
				dut.frontierMinFlows = 4
				refNet, dutNet = ref, dut
			})
			reuses += dutNet.FrontierReuses()
			if refNet.FrontierReuses() != 0 {
				t.Fatalf("reference network reported %d frontier reuses, want 0", refNet.FrontierReuses())
			}
		})
	}
	if reuses == 0 {
		t.Fatal("no recompute was served by a frontier refill; the differential exercised nothing")
	}
	t.Logf("frontier reuses across seeds: %d", reuses)
}

// giantDifferential drives a one-giant-component workload — every flow
// crosses one of two shared channels, so all tenants couple — with
// mid-run arrivals, successive completion churn, and occasional capacity
// changes, comparing a heap+frontier network against the reference fill
// after every step and checking both against the max-min certificate and
// per-flow byte conservation.
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

// TestFrontierGiantComponent is the regime the tentpole targets: one giant
// coupling component with steady attach/detach churn. The frontier must
// serve a healthy share of the recomputes (every delta lands inside the
// traced component) and stay bit-identical to the reference fill.
func TestFrontierGiantComponent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, dut := giantDifferential(t, seed, 48, 500, func(ref, dut *Network) {})
			if dut.FrontierReuses() == 0 {
				t.Fatal("giant-component churn produced no frontier reuses")
			}
			t.Logf("recomputes=%d frontier reuses=%d rounds=%d resScans=%d",
				dut.Recomputes(), dut.FrontierReuses(), dut.FillRounds(), dut.FillResScans())
		})
	}
}

// TestFrontierGiantComponentParallel drives giant-component differentials
// on separate networks in parallel, as concurrent RunCluster calls do. Fill
// scratch, trace and counters live on each Network, so each pair must match
// its reference fill and a second run of its seed; -race flags shared state.
func TestFrontierGiantComponentParallel(t *testing.T) {
	for seed := int64(5); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			_, dut := giantDifferential(t, seed, 32, 400, func(ref, dut *Network) {})
			_, again := giantDifferential(t, seed, 32, 400, func(ref, dut *Network) {})
			got := [3]int64{dut.FillRounds(), dut.FillResScans(), dut.FrontierReuses()}
			want := [3]int64{again.FillRounds(), again.FillResScans(), again.FrontierReuses()}
			if got[2] == 0 || got != want {
				t.Fatalf("rounds/resScans/frontier reuses %v, rerun %v: want equal, reuses > 0", got, want)
			}
		})
	}
}

// TestSucceedAfterMidWindowRecompute pins a recompute between a flow's
// completion and its Succeed: the delivery callback starts a new flow and
// then queries NextEvent, whose recompute consumes every delta record,
// including the detach of the just-completed train flow, and derives an
// allocation without it. Only then does the callback call Succeed. The
// successor must not carry its predecessor's rate, and must re-enter the
// delta as an attach; a regression here leaves it invisible to every later
// frontier reconstruction, driving resource counts negative and the
// allocation away from max-min. The differential against the reference
// fill (which records no trace) must stay bit-identical through and past
// the corner.
func TestSucceedAfterMidWindowRecompute(t *testing.T) {
	const tenants = 40 // one giant component above frontierMinFlows: trace records
	seg := units.Bytes(8 * units.MB)
	run := func(refFill bool) (log []string, rates []units.Bandwidth, n *Network) {
		n = New()
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
					// its detach record is already consumed, so the
					// succession must re-enter the delta as an attach.
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
	refL, refR, _ := run(true)
	dutL, dutR, dut := run(false)
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
	if dut.FrontierReuses() == 0 {
		t.Fatal("no frontier reuse after the corner; the scenario exercised nothing")
	}
}

// TestFillCounters pins the perf mechanisms themselves, not just the
// result. On churn the frontier must skip prefix levels (strictly fewer
// filling rounds than the reference); on a deep fill — per-tenant links
// all distinct bottlenecks, so filling runs one round per flow — the heap
// must examine far fewer resources than the reference's per-round full
// scan. (On shallow fills the two scan counts are comparable: one round
// freezing most flows touches most resources either way; the heap's win
// there is the adjacency-based candidate collection, measured by time in
// BenchmarkMaxMinFill.)
func TestFillCounters(t *testing.T) {
	ref, dut := giantDifferential(t, 9, 48, 500, func(ref, dut *Network) {})
	if ref.FrontierReuses() != 0 {
		t.Errorf("reference network reports %d frontier reuses, want 0", ref.FrontierReuses())
	}
	if ref.FillRounds() == 0 || dut.FillRounds() == 0 {
		t.Fatalf("fill rounds not counted: ref=%d dut=%d", ref.FillRounds(), dut.FillRounds())
	}
	if dut.FillRounds() >= ref.FillRounds() {
		// Frontier refills skip whole prefix levels, so the heap engine must
		// run strictly fewer filling rounds overall.
		t.Errorf("heap engine ran %d rounds, reference %d — frontier skipped nothing", dut.FillRounds(), ref.FillRounds())
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
