// Heap-driven progressive filling.
//
// The reference max-min fill (fillComponentRef, retained as the executable
// specification a network runs when its refFill latch is set) costs
// O(rounds × (R + F·routelen)) per recompute: every round scans every
// component resource for the bottleneck and every component flow for route
// membership. In the one-giant-component regime — a fleet of tenants
// coupled through a handful of shared array channels — rounds ≈ R and F is
// the whole fleet, so each recompute is quadratic-ish and the fill
// dominates the profile.
//
// The heap fill replaces that, bit-identically (DESIGN.md §13). Resources
// sit in an indexed min-heap keyed by (avail/count, regIdx). The key's
// second field replicates the reference scan's tie-break exactly: the scan
// keeps the first strict minimum over resources sorted by regIdx, and the
// min of the set under the lexicographic key is that same resource,
// whatever order the component discovered its resources in. Flows through
// the bottleneck come from the per-resource adjacency (Resource.flows)
// instead of a scan with an O(routelen) membership test. Cost:
// O((F·routelen + R) log R) per fill.
package flownet

import (
	"cmp"
	"math"
	"slices"
)

// fillState is the network's heap-fill scratch plus the fill-work counters
// every component fill adds to.
type fillState struct {
	heap    []*Resource
	touched []*Resource
	rounds  int64
	scans   int64
}

func resLess(a, b *Resource) bool {
	if a.fillShare != b.fillShare {
		return a.fillShare < b.fillShare
	}
	return a.regIdx < b.regIdx
}

func resHeapSiftDown(h []*Resource, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && resLess(h[r], h[l]) {
			least = r
		}
		if !resLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		h[i].fillHeap = int32(i)
		h[least].fillHeap = int32(least)
		i = least
	}
}

func resHeapSiftUp(h []*Resource, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !resLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		h[i].fillHeap = int32(i)
		h[p].fillHeap = int32(p)
		i = p
	}
}

func resHeapFix(h []*Resource, r *Resource) {
	i := int(r.fillHeap)
	resHeapSiftDown(h, i)
	if int(r.fillHeap) == i {
		resHeapSiftUp(h, i)
	}
}

func resHeapRemove(h *[]*Resource, r *Resource) {
	s := *h
	i := int(r.fillHeap)
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].fillHeap = int32(i)
	}
	s[last] = nil
	s = s[:last]
	*h = s
	if i < last {
		resHeapSiftDown(s, i)
		if int(s[i].fillHeap) == i {
			resHeapSiftUp(s, i)
		}
	}
	r.fillHeap = -1
}

// heapFill runs progressive filling over one component. Resources must
// arrive with avail/count primed (Resource.claim); candidates come from the
// per-resource adjacency (Resource.flows).
//
// Bit-identity with the reference loop: the bottleneck each round is the
// heap minimum under (avail/count, regIdx) — the same resource the
// reference scan's first-strict-minimum rule keeps, computing the same
// division. Its candidates come from the bottleneck's adjacency (the frozen
// mark set at freeze time collapses duplicate-route entries) in adjacency
// order rather than the reference's flow order: within a round every frozen
// flow subtracts the identical share, so each resource sees the same
// clamped subtraction sequence regardless of flow order, and the per-flow
// rates are the share itself — freeze order inside a round is
// float-immaterial (DESIGN.md §13). Each flow records the resource it
// froze at (Flow.bneck), which names its rate class (classes.go).
func heapFill(c *component, fs *fillState) {
	for _, f := range c.flows {
		f.frozen = false
		f.rate = 0
	}
	h := fs.heap[:0]
	for _, r := range c.res {
		r.touchRound = -1
		if r.count > 0 {
			r.fillShare = r.avail / float64(r.count)
			r.fillHeap = int32(len(h))
			h = append(h, r)
		} else {
			r.fillHeap = -1
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		resHeapSiftDown(h, i)
	}
	fs.scans += int64(len(h))
	touched := fs.touched[:0]
	unfrozen := len(c.flows)
	for round := int32(0); unfrozen > 0 && len(h) > 0; round++ {
		b := h[0]
		share := b.fillShare
		if share < 0 {
			share = 0
		}
		fs.rounds++
		touched = touched[:0]
		for _, f := range b.flows {
			if f.frozen {
				continue
			}
			f.frozen = true
			f.rate = share
			f.bneck = b
			unfrozen--
			for _, r := range f.route {
				r.avail -= share
				if r.avail < 0 {
					r.avail = 0
				}
				r.count--
				if r.touchRound != round {
					r.touchRound = round
					touched = append(touched, r)
				}
			}
		}
		fs.scans += int64(len(touched)) + 1
		if unfrozen == 0 {
			// The last flow froze: no later round reads the heap, so its
			// touched resources need no fix. The scan count above keeps
			// counting them, as the fill always has.
			break
		}
		for _, r := range touched {
			if r.count == 0 {
				if r.fillHeap >= 0 {
					resHeapRemove(&h, r)
				}
			} else {
				r.fillShare = r.avail / float64(r.count)
				resHeapFix(h, r)
			}
		}
	}
	for i := range h {
		h[i] = nil
	}
	fs.heap = h[:0]
	fs.touched = touched[:0]
}

// fillComponentRef is the reference progressive-filling loop over one
// component: per round, a full scan of the component's resources, sorted
// by regIdx, for the first strict minimum of avail/count, then a full scan
// of the component's flows for bottleneck users. Retained, on networks whose
// refFill latch is set, as the executable specification the heap fill is
// differentially pinned against.
func fillComponentRef(c *component, fs *fillState) {
	slices.SortFunc(c.res, func(a, b *Resource) int { return cmp.Compare(a.regIdx, b.regIdx) })
	for _, f := range c.flows {
		f.frozen = false
		f.rate = 0
	}
	unfrozen := len(c.flows)
	for unfrozen > 0 {
		var bottleneck *Resource
		share := math.Inf(1)
		fs.rounds++
		fs.scans += int64(len(c.res))
		for _, r := range c.res {
			if r.count == 0 {
				continue
			}
			if s := r.avail / float64(r.count); s < share {
				share = s
				bottleneck = r
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, f := range c.flows {
			if f.frozen || !flowUses(f, bottleneck) {
				continue
			}
			f.frozen = true
			f.rate = share
			f.bneck = bottleneck
			unfrozen--
			for _, r := range f.route {
				r.avail -= share
				if r.avail < 0 {
					r.avail = 0
				}
				r.count--
			}
		}
	}
}

// fillComponent fills one dirty component: the heap-driven fill on the
// production path, the reference loop on a network latched to it. All
// writes besides fs are to component-local state, so dirty components fill
// in any order with bit-equal results.
func fillComponent(c *component, fs *fillState) {
	if c.ref {
		fillComponentRef(c, fs)
		return
	}
	heapFill(c, fs)
}

// FillRounds reports how many progressive-filling rounds (bottleneck
// selections) the network has performed.
func (n *Network) FillRounds() int64 { return n.fill.rounds }

// FillResScans reports how many resource examinations the fills performed:
// the reference loop scans every component resource every round; the heap
// fill pays the initial key build plus one examination per re-keyed
// resource per round.
func (n *Network) FillResScans() int64 { return n.fill.scans }
