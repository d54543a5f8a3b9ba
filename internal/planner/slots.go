package planner

import (
	"math"

	"g10sim/internal/units"
)

// maxTree is an iterative segment tree maintaining range maxima over a
// float64 slice whose elements are updated in place. It lets the scheduler
// answer "is any slot over capacity?" (maxExcess) and "does the tensor fit
// in host memory across this window?" (hostFits) in O(log n) instead of
// scanning every slot, while the underlying per-slot float arithmetic —
// and therefore every rounding decision — stays exactly as before.
type maxTree struct {
	base int
	t    []float64
	src  []float64
}

func newMaxTree(src []float64) *maxTree {
	base := 1
	for base < len(src) {
		base <<= 1
	}
	t := make([]float64, 2*base)
	for i := range t {
		t[i] = math.Inf(-1)
	}
	m := &maxTree{base: base, t: t, src: src}
	copy(t[base:], src)
	for i := base - 1; i >= 1; i-- {
		t[i] = math.Max(t[2*i], t[2*i+1])
	}
	return m
}

// update re-syncs leaves [a, b) from src and their ancestors.
func (m *maxTree) update(a, b int) {
	if b <= a {
		return
	}
	copy(m.t[m.base+a:m.base+b], m.src[a:b])
	lo, hi := (m.base+a)>>1, (m.base+b-1)>>1
	for lo >= 1 {
		for i := lo; i <= hi; i++ {
			m.t[i] = math.Max(m.t[2*i], m.t[2*i+1])
		}
		lo >>= 1
		hi >>= 1
	}
}

// rootMax reports the maximum over all elements.
func (m *maxTree) rootMax() float64 { return m.t[1] }

// queryMax reports the maximum over [a, b); -Inf when empty.
func (m *maxTree) queryMax(a, b int) float64 {
	out := math.Inf(-1)
	lo, hi := a+m.base, b+m.base
	for lo < hi {
		if lo&1 == 1 {
			out = math.Max(out, m.t[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			out = math.Max(out, m.t[hi])
		}
		lo >>= 1
		hi >>= 1
	}
	return out
}

// bitset indexes the kernel slots whose pressure exceeds GPU capacity, so
// the benefit integral (excessArea) visits only contributing slots.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// timeline is the kernel-slot axis of the estimated iteration that
// Algorithm 1's three global states share: slot k is kernel k's interval
// [starts[k], starts[k+1]). Times past the end or before zero wrap
// cyclically, one iteration per lap; a global slot g is kernel mod(g) of
// lap floor(g/n). The planner, its channels and Retime hold one *timeline;
// it is read-only after construction.
type timeline struct {
	n      int
	starts []units.Time // kernel boundaries; starts[n] = total
	total  units.Time
	sec    []float64 // slot lengths in seconds
}

func newTimeline(starts []units.Time) *timeline {
	n := len(starts) - 1
	tl := &timeline{n: n, starts: starts, total: starts[n], sec: make([]float64, n)}
	for k := range tl.sec {
		tl.sec[k] = (starts[k+1] - starts[k]).Seconds()
	}
	return tl
}

// slotOf locates the kernel slot containing time t: the last k with
// starts[k] <= t, clamped to [0, n).
func (tl *timeline) slotOf(t units.Time) int {
	// The answer lies in [lo, lo+n).
	lo, n := 0, tl.n
	for n > 1 {
		half := n / 2
		if mid := lo + half; tl.starts[mid] <= t {
			lo = mid
		}
		n -= half
	}
	return lo
}

// cyclicSlot maps a (possibly negative or wrapped) time to its global slot,
// so that consecutive times map to consecutive slots.
func (tl *timeline) cyclicSlot(t units.Time) int {
	lap := t / tl.total
	if t%tl.total < 0 {
		lap-- // floor division
	}
	return int(lap)*tl.n + tl.slotOf(t-lap*tl.total)
}

// mod folds a global slot into its kernel slot in [0, n).
func (tl *timeline) mod(g int) int {
	return ((g % tl.n) + tl.n) % tl.n
}

// fullSlotSpan reports the global slots [g0, gEnd) that lie wholly inside
// [from, to] (none when gEnd <= g0): slot g is in it iff it starts at or
// after from and ends at or before to. Times are integers, so the first
// slot starting at or after from is the one after the slot containing
// from-1, and the span ends before the slot containing to.
func (tl *timeline) fullSlotSpan(from, to units.Time) (g0, gEnd int) {
	return tl.cyclicSlot(from-1) + 1, tl.cyclicSlot(to)
}

// run returns the kernel slots [k0, k1) of the next piece of the global
// span [g, gEnd) (g < gEnd) that does not cross an iteration end; the
// caller advances g by k1-k0.
func (tl *timeline) run(g, gEnd int) (k0, k1 int) {
	k0 = tl.mod(g)
	return k0, k0 + min(tl.n-k0, gEnd-g)
}

// window is a non-wrapping time interval [a, b) of one iteration.
type window struct{ a, b units.Time }

// wrapSplit splits the cyclic interval [from, to) — to at most one
// iteration past the end — at the iteration end. Both windows are empty
// when to <= from; the second is empty unless the interval wraps.
func (tl *timeline) wrapSplit(from, to units.Time) [2]window {
	switch {
	case to <= from:
		return [2]window{}
	case to > tl.total:
		return [2]window{{from, tl.total}, {0, to - tl.total}}
	default:
		return [2]window{{from, to}, {}}
	}
}

// touched reports the kernel slots [k0, k1) that overlap the window w
// (empty when w is).
func (tl *timeline) touched(w window) (k0, k1 int) {
	if w.b <= w.a {
		return 0, 0
	}
	return tl.slotOf(w.a), tl.slotOf(w.b-1) + 1
}
