package flownet

import (
	"fmt"
	"math"
	"testing"

	"g10sim/internal/units"
)

// checkMaxMin fails the test when n's current allocation violates the
// max-min optimality certificate (Network.CheckMaxMin).
func checkMaxMin(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckMaxMin(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckMaxMinCatchesPerturbation: the certificate is not vacuous. A
// flow whose rate is raised 1% above its max-min share, on a saturated
// link or alone on its bottleneck, fails it.
func TestCheckMaxMinCatchesPerturbation(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(2))
	solo := n.AddResource("solo", units.GBps(1))
	a := n.Start("a", units.GB, nil, link)
	n.Start("b", units.GB, nil, link)
	c := n.Start("c", units.GB, nil, solo)
	checkMaxMin(t, n)
	for _, f := range []*Flow{a, c} {
		share := f.rate
		f.rate = share * 1.01
		if err := n.CheckMaxMin(); err == nil {
			t.Errorf("flow %s at 1.01x its max-min share passed the certificate", f.Label)
		}
		f.rate = share
	}
	checkMaxMin(t, n)
}

// byteLedger is the per-flow byte-conservation certificate: it steps its
// network one internal event at a time, integrates every tracked flow's
// observed Rate() over each step, and checks the integral against the bytes
// the flow reports moved (Size − remaining) — independently of the lazy
// settlement that derives remaining.
type byteLedger struct {
	n     *Network
	moved map[*Flow]float64
	rate  map[*Flow]float64 // rate over the flow's last accrued step
	live  []*Flow           // tracked flows not yet delivered, in start order
}

func newByteLedger(n *Network) *byteLedger {
	return &byteLedger{n: n, moved: map[*Flow]float64{}, rate: map[*Flow]float64{}}
}

// track registers a just-started flow.
func (l *byteLedger) track(f *Flow) *Flow {
	l.live = append(l.live, f)
	return f
}

// advance moves the network to t like AdvanceTo, one internal event at a
// time, and checks that every tracked flow delivered on the way moved its
// Size: at least Size less the half-byte completion threshold, and at most
// Size plus what its last rate carries in completionSlack nanoseconds (the
// completion event rounds up to whole nanoseconds).
func (l *byteLedger) advance(t *testing.T, to units.Time) []*Flow {
	t.Helper()
	var done []*Flow
	for {
		e := min(l.n.NextEvent(), to)
		dt := (e - l.n.Now()).Seconds()
		for _, f := range l.live {
			r := float64(f.Rate())
			l.moved[f] += r * dt
			l.rate[f] = r
		}
		batch := l.n.AdvanceTo(e)
		for _, f := range batch {
			got, size := l.moved[f], float64(f.Size)
			hi := size + l.rate[f]*float64(completionSlack)/float64(units.Second)
			if got < size-0.5-certTol*size || got > hi+certTol*size {
				t.Fatalf("flow %s delivered at %v after ∫rate = %v bytes, size %v", f.Label, f.CompletedAt, got, size)
			}
		}
		done = append(done, batch...)
		if len(batch) > 0 {
			kept := l.live[:0]
			for _, f := range l.live {
				if !f.Done() {
					kept = append(kept, f)
				}
			}
			l.live = kept
		}
		if e >= to {
			return done
		}
	}
}

// check asserts Size − remaining equals the rate integral, within certTol
// of Size, for every tracked flow still in flight.
func (l *byteLedger) check(t *testing.T) {
	t.Helper()
	for _, f := range l.live {
		f.Remaining() // settle
		got, want := float64(f.Size)-f.remaining, l.moved[f]
		if math.Abs(got-want) > certTol*float64(f.Size) {
			t.Fatalf("flow %s at %v: moved %v bytes, ∫rate = %v", f.Label, l.n.Now(), got, want)
		}
	}
}

// traceTopology registers ch (80 GB/s) and the 40 per-tenant links of
// 1 GB/s whose flows through ch form one 40-flow component; each tenant
// link is its own bottleneck round, leaving ch 40 GB/s of headroom.
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

// TestIdleTracedCapacityCutDropsTrace: a resource that leaves the giant
// component, goes idle, and then has its capacity cut must give a later
// flow the cut capacity, not the one it had while coupled. The cut's
// recompute finds no busy component at the idle resource; the next
// arrival's component discovery must read its capacity afresh. (The name
// is kept from the frontier refill's fill trace, which once recorded the
// old capacity; DESIGN.md §13.)
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

// TestIdleTracedResourceBesideCapacityChange: a resource of the giant
// component loses its last flow in the same event as a capacity change on
// an unrelated busy resource. The departed flow must not stay counted on
// the idle resource: a later flow through it gets its whole capacity.
// (The name is kept from the frontier refill's fill trace, whose delta
// records that recompute once dropped; DESIGN.md §13.)
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
