package flownet

import (
	"fmt"
	"math"
	"math/rand"
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

// TestIdleResourceCapacityCut: a resource that leaves the giant
// component, goes idle, and then has its capacity cut must give a later
// flow the cut capacity, not the one it had while coupled. The cut's
// recompute finds no busy component at the idle resource; the next
// arrival's component discovery must read its capacity afresh.
func TestIdleResourceCapacityCut(t *testing.T) {
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

// TestIdleResourceBesideCapacityChange: a resource of the giant
// component loses its last flow in the same event as a capacity change on
// an unrelated busy resource. The departed flow must not stay counted on
// the idle resource: a later flow through it gets its whole capacity.
func TestIdleResourceBesideCapacityChange(t *testing.T) {
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

// TestCheckMaxMinNeutralInDriverLoop pins when the certificate leaves the
// engine counters alone. The loop is the cluster driver's: reactions to
// the last advance (arrivals, aborts), the certificate, then NextEvent and
// an AdvanceEventwise whose deliveries succeed, release or replace their
// flows; and one more certificate once the loop ends. Every counter must
// match an uncertified twin. A certificate after a change that no
// NextEvent follows is the exception: it costs one recompute.
func TestCheckMaxMinNeutralInDriverLoop(t *testing.T) {
	type counters struct{ recomputes, successions, rounds, scans, touches, reaps int64 }
	run := func(certify bool) (*Network, counters) {
		n := New()
		shared := []*Resource{n.AddResource("chanA", units.GBps(4)), n.AddResource("chanB", units.GBps(4))}
		var links []*Resource
		for i := 0; i < 24; i++ {
			links = append(links, n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16)))
		}
		rng := rand.New(rand.NewSource(7))
		var live []*Flow
		start := func() {
			size := units.Bytes(1+rng.Intn(32)) * units.MB
			at := n.Now() + units.Time(units.Duration(rng.Intn(2))*units.Millisecond)
			live = append(live, n.StartAt("f", size, at, nil, links[rng.Intn(len(links))], shared[rng.Intn(2)]))
		}
		for i := 0; i < 40; i++ {
			start()
		}
		for round := 0; round < 400; round++ {
			switch rng.Intn(4) {
			case 0:
				start()
			case 1:
				if k := len(live); k > 0 {
					i := rng.Intn(k)
					n.Abort(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			if certify {
				checkMaxMin(t, n)
			}
			e := n.NextEvent()
			if e == units.Forever {
				break
			}
			n.AdvanceEventwise(e, func(done []*Flow) {
				for _, f := range done {
					for i, g := range live {
						if g == f {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					switch rng.Intn(3) {
					case 0:
						live = append(live, n.Succeed(f, units.Bytes(1+rng.Intn(8))*units.MB))
					case 1:
						n.Release(f)
						start()
					default:
						n.Release(f)
					}
				}
			})
		}
		if certify {
			checkMaxMin(t, n)
		}
		return n, counters{n.Recomputes(), n.Successions(), n.FillRounds(), n.FillResScans(), n.ProgressTouches(), n.ReapScans()}
	}
	plain, want := run(false)
	certified, got := run(true)
	if got != want {
		t.Fatalf("certified driver loop counters %+v, uncertified %+v", got, want)
	}
	if want.successions == 0 || want.recomputes == 0 {
		t.Fatalf("counters %+v: the loop never recomputed or carried a succession", want)
	}
	// Outside the loop: the same change, certified and not.
	for _, n := range []*Network{plain, certified} {
		n.Start("late", units.MB, nil, n.Resource("gpu0/pcie"), n.Resource("chanA"))
	}
	before := certified.Recomputes()
	checkMaxMin(t, certified)
	if certified.Recomputes() != before+1 || plain.Recomputes() != before {
		t.Fatalf("certificate after an unobserved start: %d → %d recomputes (uncertified twin %d); want exactly one more",
			before, certified.Recomputes(), plain.Recomputes())
	}
}
