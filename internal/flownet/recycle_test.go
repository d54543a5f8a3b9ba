package flownet

import (
	"fmt"
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// recycleLeg is one side of the recycling differential: a network, the
// flows started on it that have neither completed nor been aborted (in
// start order), and the completion batches of the current step.
type recycleLeg struct {
	name    string
	n       *Network
	shared  []*Resource
	links   []*Resource
	live    []*Flow
	batches []string
	// release hands every delivered, non-succeeded flow back to the
	// network; freed is the stack of released flows no StartAt has reused
	// yet, in release order, so the reuse order is checked.
	release bool
	freed   []*Flow
}

func newRecycleLeg(name string, tenants int, release bool) *recycleLeg {
	l := &recycleLeg{name: name, n: New(), release: release}
	l.shared = append(l.shared, l.n.AddResource("chanA", units.GBps(4)), l.n.AddResource("chanB", units.GBps(4)))
	for i := 0; i < tenants; i++ {
		l.links = append(l.links, l.n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16)))
	}
	return l
}

// start launches a flow from tenant ti through shared channel si, lat
// after now, and checks that reuse is immediate: while any released flow
// waits, StartAt hands back the most recently released one, with or
// without a recompute since, and allocates nothing.
func (l *recycleLeg) start(t *testing.T, label string, size units.Bytes, lat units.Duration, ti, si int) {
	t.Helper()
	allocs := l.n.FlowAllocs()
	f := l.n.StartAt(label, size, l.n.Now()+lat, label, l.links[ti], l.shared[si])
	if k := len(l.freed) - 1; k >= 0 {
		if f != l.freed[k] || l.n.FlowAllocs() != allocs {
			t.Fatalf("flow %s did not reuse the last released flow", label)
		}
		l.freed = l.freed[:k]
	}
	l.live = append(l.live, f)
}

// drop removes f from the live list, keeping start order.
func (l *recycleLeg) drop(f *Flow) {
	for i, g := range l.live {
		if g == f {
			l.live = append(l.live[:i], l.live[i+1:]...)
			return
		}
	}
}

// advance runs AdvanceEventwise to `to`. The delivery callback's choices
// come from a generator seeded by seed, so both legs make the same ones as
// long as they see the same batches. Per delivered flow it succeeds it,
// replaces it with a fresh flow, or lets it end; a flow that is not
// succeeded is released (on the releasing leg) before the callback goes
// on, and a Rate/NextEvent query may then force a recompute inside the
// callback, so a StartAt later in the same callback can reuse it.
func (l *recycleLeg) advance(t *testing.T, to units.Time, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l.batches = l.batches[:0]
	l.n.AdvanceEventwise(to, func(done []*Flow) {
		batch := ""
		for _, f := range done {
			batch += fmt.Sprintf("[%d %v %s]", f.ID, f.CompletedAt, f.Label)
		}
		l.batches = append(l.batches, batch)
		for _, f := range done {
			route := f.Route()
			ti, si := 0, 0
			for i, r := range l.links {
				if r == route[0] {
					ti = i
				}
			}
			if route[1] == l.shared[1] {
				si = 1
			}
			switch act := rng.Intn(10); {
			case act < 4:
				l.n.Succeed(f, units.Bytes(1+rng.Intn(8))*units.MB)
			case act < 7:
				l.drop(f)
				l.start(t, f.Label+"'", units.Bytes(1+rng.Intn(16))*units.MB, 0, ti, si)
			default:
				l.drop(f)
			}
			if f.Done() && l.release {
				l.n.Release(f)
				if f.Data != nil || f.Route() != nil {
					t.Fatalf("released flow %d keeps its payload or route", f.ID)
				}
				l.freed = append(l.freed, f)
			}
			switch rng.Intn(4) {
			case 0:
				_ = l.n.NextEvent()
			case 1:
				if len(l.live) > 0 {
					_ = l.live[rng.Intn(len(l.live))].Rate()
				}
			}
			if rng.Intn(3) == 0 {
				lat := units.Duration(rng.Intn(2)) * units.Millisecond
				l.start(t, fmt.Sprintf("w%d", rng.Int63()), units.Bytes(1+rng.Intn(16))*units.MB, lat, rng.Intn(len(l.links)), rng.Intn(2))
			}
		}
	})
}

// recycleDifferential drives three networks through one seeded op stream:
// a never-releasing one on the heap fill ("keep"), a releasing one
// ("release"), and a never-releasing one latched to the reference fill
// ("reference"). After every step the other two must match keep exactly —
// completion batches, next events, and every live flow's rate and remaining
// bytes — and all three allocations must be max-min fair. Before every
// step the stream starts flows until at least minFlows are live, so a high
// floor keeps the networks dense (NextEvent on the completion heap) and a
// floor of 1 lets them run sparse (the linear scan). It returns the keep
// and release networks' fresh-flow allocation counts.
func recycleDifferential(t *testing.T, seed int64, tenants, steps, minFlows int) (keepAllocs, recAllocs int64) {
	t.Helper()
	keep, rec := newRecycleLeg("keep", tenants, false), newRecycleLeg("release", tenants, true)
	ref := newRecycleLeg("reference", tenants, false)
	ref.n.refFill = true
	legs := []*recycleLeg{keep, rec, ref}
	rng := rand.New(rand.NewSource(seed))
	heapSteps := 0
	for step := 0; step < steps; step++ {
		for i := 0; len(keep.live) < minFlows; i++ {
			label := fmt.Sprintf("m%d.%d", step, i)
			size := units.Bytes(1+rng.Intn(32)) * units.MB
			ti, si := rng.Intn(tenants), rng.Intn(2)
			for _, l := range legs {
				l.start(t, label, size, 0, ti, si)
			}
		}
		switch op := rng.Intn(10); {
		case op < 4:
			label := fmt.Sprintf("f%d", step)
			size := units.Bytes(1+rng.Intn(32)) * units.MB
			lat := units.Duration(rng.Intn(3)) * units.Millisecond
			ti, si := rng.Intn(tenants), rng.Intn(2)
			for _, l := range legs {
				l.start(t, label, size, lat, ti, si)
			}
		case op == 4:
			si := rng.Intn(2)
			bw := units.GBps(2 + float64(rng.Intn(6)))
			for _, l := range legs {
				l.n.SetCapacity(l.shared[si], bw)
			}
		case op == 5:
			if len(keep.live) == 0 {
				continue
			}
			i := rng.Intn(len(keep.live))
			for _, l := range legs {
				f := l.live[i]
				l.n.Abort(f)
				l.drop(f)
			}
		default:
			to := keep.n.Now() + units.Time(units.Duration(1+rng.Intn(1500))*units.Microsecond)
			if e := keep.n.NextEvent(); rng.Intn(2) == 0 && e < units.Forever {
				to = e
			}
			s := rng.Int63()
			for _, l := range legs {
				l.advance(t, to, s)
			}
			for _, l := range legs[1:] {
				if fmt.Sprint(keep.batches) != fmt.Sprint(l.batches) {
					t.Fatalf("step %d: completion batches differ:\nkeep: %v\n%s: %v", step, keep.batches, l.name, l.batches)
				}
			}
		}
		for _, l := range legs {
			checkMaxMin(t, l.n)
			mustCheckClasses(t, l.n)
		}
		for _, l := range legs[1:] {
			if kn, ln := keep.n.NextEvent(), l.n.NextEvent(); kn != ln {
				t.Fatalf("step %d: NextEvent %v (keep) vs %v (%s)", step, kn, ln, l.name)
			}
			if len(keep.live) != len(l.live) {
				t.Fatalf("step %d: %d live flows (keep) vs %d (%s)", step, len(keep.live), len(l.live), l.name)
			}
			for i, kf := range keep.live {
				lf := l.live[i]
				if kf.ID != lf.ID || kf.Rate() != lf.Rate() || kf.Remaining() != lf.Remaining() {
					t.Fatalf("step %d: flow %s: id/rate/remaining %d/%v/%v (keep) vs %d/%v/%v (%s)",
						step, kf.Label, kf.ID, kf.Rate(), kf.Remaining(), lf.ID, lf.Rate(), lf.Remaining(), l.name)
				}
			}
		}
		if keep.n.heapMode {
			heapSteps++
		}
	}
	if minFlows > compHeapThreshold && heapSteps == 0 {
		t.Fatalf("at least %d live flows, yet NextEvent never used the completion heap", minFlows)
	}
	return keep.n.FlowAllocs(), rec.n.FlowAllocs()
}

// TestReleaseReuseMatchesNoReuse: recycling delivered flows is invisible.
// A network that releases every delivered, non-succeeded flow must stay
// bit-identical to one that never does, through dormant starts, carried
// successions, aborts, capacity changes and recomputes between a
// completion and its Succeed, and it
// must actually reuse flows, at the first StartAt after a Release. The
// reference-fill leg holds the heap fill to the executable specification
// on the op stream the GPU drivers issue. The stream runs dense (at least
// 32 live flows, above compHeapThreshold) and sparse (at least 1).
func TestReleaseReuseMatchesNoReuse(t *testing.T) {
	for _, minFlows := range []int{32, 1} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("minFlows=%d/seed=%d", minFlows, seed), func(t *testing.T) {
				keepAllocs, recAllocs := recycleDifferential(t, seed, 16, 600, minFlows)
				if recAllocs >= keepAllocs {
					t.Fatalf("releasing network allocated %d flows, non-releasing %d: nothing was reused", recAllocs, keepAllocs)
				}
			})
		}
	}
}

// TestReleaseRejectsLiveFlows: only a completed flow may be released, and
// only once.
func TestReleaseRejectsLiveFlows(t *testing.T) {
	n := New()
	link := n.AddResource("link", units.GBps(1))
	active := n.Start("active", units.MB, nil, link)
	dormant := n.StartAt("dormant", units.MB, units.Second, nil, link)
	rejects := func(name string, f *Flow) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Release of the %s flow was accepted", name)
			}
		}()
		n.Release(f)
	}
	rejects("active", active)
	rejects("dormant", dormant)
	var succeeded *Flow
	n.AdvanceEventwise(n.NextEvent(), func(done []*Flow) {
		for _, f := range done {
			if f == active {
				succeeded = n.Succeed(f, units.MB)
			}
		}
	})
	if succeeded == nil {
		t.Fatal("the active flow did not complete at the first event")
	}
	rejects("succeeded", succeeded)
	n.AdvanceTo(n.NextEvent())
	if !succeeded.Done() {
		t.Fatal("the succeeded flow did not complete")
	}
	n.Release(succeeded)
	rejects("released", succeeded)
}
