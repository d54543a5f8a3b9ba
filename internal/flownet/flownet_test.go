package flownet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"g10sim/internal/units"
)

func approxTime(t *testing.T, got, want units.Time, tol units.Duration) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Errorf("time = %v, want %v (±%v)", got, want, tol)
	}
}

func TestSingleFlowCompletion(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(16))
	f := n.Start("xfer", 16*units.GB, nil, link)
	done := n.AdvanceTo(2 * units.Second)
	if len(done) != 1 || done[0] != f {
		t.Fatalf("expected the single flow to complete, got %d", len(done))
	}
	approxTime(t, f.CompletedAt, units.Second, units.Microsecond)
	if !f.Done() {
		t.Error("flow not marked done")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two equal flows over one link each get half the bandwidth.
	n := New()
	link := n.AddResource("pcie", units.GBps(10))
	a := n.Start("a", 10*units.GB, nil, link)
	b := n.Start("b", 10*units.GB, nil, link)
	if a.Rate() != b.Rate() {
		t.Fatalf("rates differ: %v vs %v", a.Rate(), b.Rate())
	}
	if got := a.Rate().GBpsValue(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("rate = %v GB/s, want 5", got)
	}
	done := n.AdvanceTo(3 * units.Second)
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	approxTime(t, a.CompletedAt, 2*units.Second, units.Microsecond)
	approxTime(t, b.CompletedAt, 2*units.Second, units.Microsecond)
}

func TestRateIncreasesWhenCompetitorFinishes(t *testing.T) {
	// a: 5GB, b: 15GB over a 10GB/s link. Both run at 5GB/s; a finishes at
	// t=1s; b then runs at 10GB/s and finishes 1s later (total 2s).
	n := New()
	link := n.AddResource("pcie", units.GBps(10))
	a := n.Start("a", 5*units.GB, nil, link)
	b := n.Start("b", 15*units.GB, nil, link)
	done := n.AdvanceTo(5 * units.Second)
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	approxTime(t, a.CompletedAt, 1*units.Second, units.Microsecond)
	approxTime(t, b.CompletedAt, 2*units.Second, 2*units.Microsecond)
}

func TestMultiResourceBottleneck(t *testing.T) {
	// An SSD flow routed through [ssd-read 3.2, pcie 16] is capped at 3.2;
	// a host flow through [pcie 16] takes the rest (12.8).
	n := New()
	pcie := n.AddResource("pcie-in", units.GBps(16))
	ssd := n.AddResource("ssd-read", units.GBps(3.2))
	sf := n.Start("ssd", 32*units.GB, nil, ssd, pcie)
	hf := n.Start("host", 32*units.GB, nil, pcie)
	if got := sf.Rate().GBpsValue(); math.Abs(got-3.2) > 1e-9 {
		t.Errorf("ssd flow rate = %v, want 3.2", got)
	}
	if got := hf.Rate().GBpsValue(); math.Abs(got-12.8) > 1e-9 {
		t.Errorf("host flow rate = %v, want 12.8", got)
	}
}

func TestPCIeSaturationSharesAcrossClasses(t *testing.T) {
	// Two host flows plus one SSD flow on a 6 GB/s PCIe link with a 3.2 GB/s
	// SSD channel: fair share is 2 GB/s each; the SSD channel is not the
	// bottleneck.
	n := New()
	pcie := n.AddResource("pcie-in", units.GBps(6))
	ssd := n.AddResource("ssd-read", units.GBps(3.2))
	f1 := n.Start("h1", units.GB, nil, pcie)
	f2 := n.Start("h2", units.GB, nil, pcie)
	f3 := n.Start("s", units.GB, nil, ssd, pcie)
	for _, f := range []*Flow{f1, f2, f3} {
		if got := f.Rate().GBpsValue(); math.Abs(got-2) > 1e-9 {
			t.Errorf("flow %s rate = %v, want 2", f.Label, got)
		}
	}
}

func TestDormantFlowActivates(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(1))
	f := n.StartAt("late", units.GB, 500*units.Millisecond, nil, link)
	if f.Rate() != 0 {
		t.Fatal("dormant flow has a rate")
	}
	done := n.AdvanceTo(400 * units.Millisecond)
	if len(done) != 0 {
		t.Fatal("flow completed before activating")
	}
	done = n.AdvanceTo(2 * units.Second)
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1", len(done))
	}
	approxTime(t, f.CompletedAt, 1500*units.Millisecond, units.Microsecond)
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(1))
	f := n.Start("zero", 0, nil, link)
	done := n.AdvanceTo(n.Now())
	if len(done) != 1 || done[0] != f {
		t.Fatalf("zero-byte flow did not complete instantly: %d", len(done))
	}
}

func TestZeroCapacityNeverCompletes(t *testing.T) {
	n := New()
	link := n.AddResource("dead", 0)
	n.Start("stuck", units.GB, nil, link)
	if e := n.NextEvent(); e != units.Forever {
		t.Fatalf("NextEvent = %v, want Forever", e)
	}
	done := n.AdvanceTo(10 * units.Second)
	if len(done) != 0 {
		t.Fatal("flow on zero-capacity link completed")
	}
}

func TestSetCapacityMidFlight(t *testing.T) {
	// 10GB at 10GB/s for 0.5s (5GB moved), then capacity drops to 2.5GB/s:
	// remaining 5GB takes 2s more; completion at 2.5s.
	n := New()
	link := n.AddResource("pcie", units.GBps(10))
	f := n.Start("x", 10*units.GB, nil, link)
	n.AdvanceTo(500 * units.Millisecond)
	n.SetCapacity(link, units.GBps(2.5))
	done := n.AdvanceTo(5 * units.Second)
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1", len(done))
	}
	approxTime(t, f.CompletedAt, 2500*units.Millisecond, 2*units.Microsecond)
}

func TestAdvanceBackwardPanics(t *testing.T) {
	n := New()
	n.AddResource("x", units.GBps(1))
	n.AdvanceTo(units.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backward did not panic")
		}
	}()
	n.AdvanceTo(0)
}

func TestEmptyRoutePanics(t *testing.T) {
	n := New()
	defer func() {
		if recover() == nil {
			t.Fatal("empty route did not panic")
		}
	}()
	n.Start("bad", units.GB, nil)
}

func TestDuplicateResourcePanics(t *testing.T) {
	n := New()
	n.AddResource("x", units.GBps(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate resource did not panic")
		}
	}()
	n.AddResource("x", units.GBps(2))
}

// fillModes names the two max-min fills a property test runs under: the
// production heap fill and the reference scan loop (Network.refFill).
var fillModes = []struct {
	name string
	ref  bool
}{{"heap", false}, {"reference", true}}

// TestWorkConservation checks the max-min property under each fill:
// whenever any flow wants more bandwidth, at least one resource on its
// route is fully allocated.
func TestWorkConservation(t *testing.T) {
	for _, mode := range fillModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				n := New()
				n.refFill = mode.ref
				var res []*Resource
				for i := 0; i < 4; i++ {
					res = append(res, n.AddResource(string(rune('a'+i)), units.GBps(1+10*rng.Float64())))
				}
				var flows []*Flow
				for i := 0; i < 8; i++ {
					route := []*Resource{res[rng.Intn(len(res))]}
					if rng.Intn(2) == 0 {
						r2 := res[rng.Intn(len(res))]
						if r2 != route[0] {
							route = append(route, r2)
						}
					}
					flows = append(flows, n.Start("f", units.GB, nil, route...))
				}
				// Sum rates per resource.
				load := map[*Resource]float64{}
				for _, f := range flows {
					for _, r := range f.Route() {
						load[r] += float64(f.Rate())
					}
				}
				for r, l := range load {
					if l > float64(r.Capacity())*(1+1e-9) {
						t.Fatalf("trial %d: resource %s overloaded: %v > %v", trial, r.Name, l, float64(r.Capacity()))
					}
				}
				for _, f := range flows {
					saturated := false
					for _, r := range f.Route() {
						if load[r] >= float64(r.Capacity())*(1-1e-9) {
							saturated = true
						}
					}
					if !saturated {
						t.Fatalf("trial %d: flow has slack on all resources (rate %v)", trial, f.Rate())
					}
				}
			}
		})
	}
}

// TestByteConservationProperty: for random flow sets on a shared link,
// under each fill, each flow's rate integrated over the run equals its
// size once complete (the byte ledger fails the test otherwise), and every
// flow completes.
func TestByteConservationProperty(t *testing.T) {
	for _, mode := range fillModes {
		t.Run(mode.name, func(t *testing.T) {
			f := func(sizes []uint16) bool {
				if len(sizes) == 0 || len(sizes) > 12 {
					return true
				}
				n := New()
				n.refFill = mode.ref
				shared := n.AddResource("shared", units.GBps(2))
				l := newByteLedger(n)
				for i, s := range sizes {
					l.track(n.Start("f", units.Bytes(s)*units.MB, i, shared))
				}
				done := l.advance(t, units.Forever-1)
				return len(done) == len(sizes) && n.Idle()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCompletionOrderMatchesSize: over a fair-shared link, smaller flows
// finish no later than larger ones started at the same time.
func TestCompletionOrderMatchesSize(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(8))
	small := n.Start("small", units.GB, nil, link)
	big := n.Start("big", 4*units.GB, nil, link)
	n.AdvanceTo(units.Forever - 1)
	if small.CompletedAt > big.CompletedAt {
		t.Errorf("small finished at %v after big at %v", small.CompletedAt, big.CompletedAt)
	}
}

func TestResourceLookup(t *testing.T) {
	n := New()
	r := n.AddResource("pcie-in", units.GBps(16))
	if n.Resource("pcie-in") != r {
		t.Error("Resource lookup failed")
	}
	if n.Resource("nope") != nil {
		t.Error("missing resource should be nil")
	}
}

func TestManySequentialFlows(t *testing.T) {
	// Start flows back-to-back; clock and ordering must stay consistent.
	n := New()
	link := n.AddResource("pcie", units.GBps(1))
	var last units.Time
	for i := 0; i < 100; i++ {
		f := n.Start("f", 10*units.MB, nil, link)
		done := n.AdvanceTo(n.NextEvent())
		if len(done) != 1 || done[0] != f {
			t.Fatalf("iteration %d: unexpected completions %d", i, len(done))
		}
		if f.CompletedAt < last {
			t.Fatalf("clock went backwards: %v < %v", f.CompletedAt, last)
		}
		last = f.CompletedAt
	}
}

// TestRatesStablePiecewise: between events, a flow's rate must not change;
// AdvanceTo to a mid-interval time preserves allocations exactly.
func TestRatesStablePiecewise(t *testing.T) {
	n := New()
	link := n.AddResource("pcie", units.GBps(10))
	a := n.Start("a", 10*units.GB, nil, link)
	b := n.Start("b", 20*units.GB, nil, link)
	r0a, r0b := a.Rate(), b.Rate()
	n.AdvanceTo(300 * units.Millisecond) // before any completion
	if a.Rate() != r0a || b.Rate() != r0b {
		t.Errorf("rates drifted without an event: %v/%v -> %v/%v", r0a, r0b, a.Rate(), b.Rate())
	}
	// Remaining bytes decreased proportionally to the elapsed time.
	moved := 10*units.GB - a.Remaining()
	want := units.Bytes(float64(r0a) * 0.3)
	diff := moved - want
	if diff < 0 {
		diff = -diff
	}
	if diff > units.MB {
		t.Errorf("flow a moved %v in 300ms at %v, want ~%v", moved, r0a, want)
	}
}

// TestThreeStageRoute: a flow through three resources is capped by the
// narrowest one.
func TestThreeStageRoute(t *testing.T) {
	n := New()
	r1 := n.AddResource("ssd", units.GBps(3.2))
	r2 := n.AddResource("pcie", units.GBps(16))
	r3 := n.AddResource("hostbus", units.GBps(2))
	f := n.Start("bounce", units.GB, nil, r1, r2, r3)
	if got := f.Rate().GBpsValue(); got < 1.99 || got > 2.01 {
		t.Errorf("rate = %v, want 2 (narrowest hop)", got)
	}
}
