// Heap-driven progressive filling and frontier-incremental refill.
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
// Two layers replace that, bit-identically (DESIGN.md §13):
//
//  1. Heap-driven filling. Resources sit in an indexed min-heap keyed by
//     (avail/count, component-local resource order). The key's second field
//     replicates the reference scan's tie-break exactly: the scan keeps the
//     first strict minimum over resources in registration order, and the
//     min of the set under the lexicographic key is that same resource.
//     Flows through the bottleneck come from the per-resource adjacency
//     (Resource.flows, maintained since PR 7) instead of a scan with an
//     O(routelen) membership test, and are frozen in component-local
//     flow-index order so every share computation and every
//     `r.avail -= share` lands in the identical float order as the
//     reference loop. Cost: O((F·routelen + R) log R) per fill.
//
//  2. Frontier-incremental refill. Each recorded fill snapshots its
//     per-level (bottleneck, share, frozen-set) trace plus a per-resource
//     (avail, count) history. When the next recompute's delta (flows
//     attached or detached since the last fill) is wholly inside the traced
//     component, max-min monotonicity pins a restart level L: every level
//     strictly below L re-derives with identical floats, so the flows
//     frozen there keep their rates verbatim — no settle, no re-key, no
//     arithmetic at all — and only the suffix refills through the heap.
//     The common fleet event (one chunk completes, one fetch starts inside
//     a 10⁴-flow component) costs O(suffix + R) instead of O(F·routelen).
package flownet

import (
	"math"
	"sort"
)

// frontierMinFlows is the component size below which a fill does not record
// a trace: full refills of small components are already cheap, and the
// trace bookkeeping would only add constant overhead. A var so differential
// tests can force tracing on small topologies.
var frontierMinFlows = 32

// noLevel marks a resource as never removed by the recorded fill.
const noLevel = math.MaxInt32

// histEntry is one point of a resource's recorded (avail, count) history:
// the state at the selection of level `level` (entry 0 is the fill's
// initial state). count is the number of route occurrences of still-unfrozen
// flows; avail is the capacity left after the strictly earlier levels'
// subtractions — exactly the operands a reference fill restarted at that
// level would read.
type histEntry struct {
	level int32
	count int32
	avail float64
}

// levelRec is one filling round of a recorded fill: the bottleneck it
// selected, the share it computed, and where its frozen flows begin in the
// trace's freeze sequence.
type levelRec struct {
	bneck       *Resource
	share       float64
	frozenStart int32
}

// fillTrace is the recorded trace of one component's most recent fill,
// kept current across frontier refills (a refill truncates the trace at the
// restart level and re-records the suffix). gen ties the per-resource and
// per-flow trace fields (traceGen, freezeLevel, hist, removedLevel,
// orderIdx) to this trace; invalidation is O(1) — the generation moves on
// and stale stamps simply stop matching.
type fillTrace struct {
	gen       uint32
	levels    []levelRec
	frozenSeq []*Flow
	res       []*Resource // component resources in registration order
}

// attachRec / detachRec accumulate the flow delta between recomputes — the
// input the frontier refill derives its restart level from. Lists are
// consumed (and cleared) by every recompute, whichever path it takes.
//
// In-window flow successions (Succeed during a deferred completion batch)
// are trace-transparent: the successor reuses the predecessor's flow
// object, route, and rate, so the trace keeps describing it verbatim — the
// detach record from its completion is cancelled and no attach record is
// made. Successions outside a deferred window instead keep the detach and
// add an attach, so the refill re-keys the successor's completion.
type attachRec struct {
	f    *Flow
	live bool
}

// A detach record keeps the flow's route: the driver may Release the flow,
// which clears it, before the next recompute reads the record.
type detachRec struct {
	f     *Flow
	route []*Resource
	level int32
	gen   uint32
	live  bool
}

// noteAttach records a flow activation for the next recompute's delta.
// Only needed while a trace exists — without one the next recompute
// rediscovers everything anyway.
func (n *Network) noteAttach(f *Flow) {
	if n.trace == nil {
		return
	}
	n.deltaAttach = append(n.deltaAttach, attachRec{f: f, live: true})
	f.attachRec = int32(len(n.deltaAttach))
}

// noteDetach records a flow completion for the next recompute's delta. If
// the flow activated after the last recompute (it has a live attach
// record), the pair cancels to a net no-op.
func (n *Network) noteDetach(f *Flow) {
	if n.trace == nil {
		return
	}
	if f.attachRec > 0 {
		n.deltaAttach[f.attachRec-1].live = false
		f.attachRec = 0
		return
	}
	n.deltaDetach = append(n.deltaDetach, detachRec{f: f, route: f.route, level: f.freezeLevel, gen: f.traceGen, live: true})
	f.detachRec = int32(len(n.deltaDetach))
}

// cancelDetach voids a flow's pending detach record (an in-window
// succession replaced the completion in place; the trace still describes
// the flow).
func (n *Network) cancelDetach(f *Flow) {
	if f.detachRec > 0 {
		n.deltaDetach[f.detachRec-1].live = false
		f.detachRec = 0
	}
}

// clearDeltas empties the delta lists after a recompute consumed (or
// superseded) them.
func (n *Network) clearDeltas() {
	for i := range n.deltaAttach {
		if f := n.deltaAttach[i].f; f != nil {
			f.attachRec = 0
		}
		n.deltaAttach[i] = attachRec{}
	}
	n.deltaAttach = n.deltaAttach[:0]
	for i := range n.deltaDetach {
		if f := n.deltaDetach[i].f; f != nil {
			f.detachRec = 0
		}
		n.deltaDetach[i] = detachRec{}
	}
	n.deltaDetach = n.deltaDetach[:0]
	n.deltaRes = n.deltaRes[:0]
}

// invalidateTrace drops the recorded fill trace. Per-resource and per-flow
// stamps go stale by generation mismatch; nothing is walked.
func (n *Network) invalidateTrace() {
	n.trace = nil
	n.clearDeltas()
}

// newTrace returns the (reused) trace buffer primed with a fresh
// generation.
func (n *Network) newTrace() *fillTrace {
	if n.traceBuf == nil {
		n.traceBuf = &fillTrace{}
	}
	t := n.traceBuf
	n.traceGenSrc++
	t.gen = n.traceGenSrc
	t.levels = t.levels[:0]
	t.frozenSeq = t.frozenSeq[:0]
	t.res = t.res[:0]
	return t
}

// ---- layer 1: the heap-driven fill ----

// fillState is the network's heap-fill scratch plus the fill-work counters
// every fill (component or frontier refill) adds to.
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
	return a.orderIdx < b.orderIdx
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

// heapFill runs progressive filling over the given unfrozen flows and their
// resources, starting at round number `level`. Resources must arrive with
// avail/count primed, orderIdx assigned in registration order, touchRound
// reset to -1, and flows with frozen=false; candidates come from the
// per-resource adjacency (Resource.flows). When rec is non-nil the fill records its trace (level records,
// freeze sequence, per-resource history and removal levels).
//
// Bit-identity with the reference loop: the bottleneck each round is the
// heap minimum under (avail/count, orderIdx) — the same resource the
// reference scan's first-strict-minimum rule keeps, computing the same
// division. Its candidates come from the bottleneck's adjacency (the frozen
// mark set at freeze time collapses duplicate-route entries) in adjacency
// order rather than the reference's flow order: within a round every frozen
// flow subtracts the identical share, so each resource sees the same
// clamped subtraction sequence regardless of flow order, and the per-flow
// rates are the share itself — freeze order inside a level is
// float-immaterial (DESIGN.md §13).
func heapFill(flows []*Flow, res []*Resource, fs *fillState, rec *fillTrace, level int32) {
	h := fs.heap[:0]
	for _, r := range res {
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
	unfrozen := len(flows)
	for unfrozen > 0 && len(h) > 0 {
		b := h[0]
		share := b.fillShare
		if share < 0 {
			share = 0
		}
		fs.rounds++
		if rec != nil {
			rec.levels = append(rec.levels, levelRec{bneck: b, share: share, frozenStart: int32(len(rec.frozenSeq))})
		}
		touched = touched[:0]
		for _, f := range b.flows {
			if f.frozen {
				continue
			}
			f.frozen = true
			f.rate = share
			unfrozen--
			for _, r := range f.route {
				r.avail -= share
				if r.avail < 0 {
					r.avail = 0
				}
				r.count--
				if r.touchRound != level {
					r.touchRound = level
					touched = append(touched, r)
				}
			}
			if rec != nil {
				rec.frozenSeq = append(rec.frozenSeq, f)
				f.freezeLevel = level
				f.traceGen = rec.gen
			}
		}
		fs.scans += int64(len(touched)) + 1
		for _, r := range touched {
			if r.count == 0 {
				if r.fillHeap >= 0 {
					resHeapRemove(&h, r)
				}
				if rec != nil {
					r.removedLevel = level
				}
			} else {
				r.fillShare = r.avail / float64(r.count)
				resHeapFix(h, r)
			}
			if rec != nil {
				r.hist = append(r.hist, histEntry{level: level + 1, count: int32(r.count), avail: r.avail})
			}
		}
		level++
	}
	for i := range h {
		h[i] = nil
	}
	fs.heap = h[:0]
	fs.touched = touched[:0]
}

// fillComponentRef is the reference progressive-filling loop over one
// component: per round, a full scan of the component's resources for the
// first strict minimum of avail/count, then a full scan of the component's
// flows for bottleneck users. Retained, on networks whose refFill latch
// is set, as the executable specification the heap fill and the frontier
// refill are differentially pinned against.
func fillComponentRef(c *component, fs *fillState) {
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
// production path (recording a trace when the component was chosen for
// one), the reference loop on a network latched to it. All writes
// besides fs are to component-local state, so dirty components fill in any
// order with bit-equal results.
func fillComponent(c *component, fs *fillState) {
	if c.ref {
		fillComponentRef(c, fs)
		return
	}
	for i, r := range c.res {
		r.orderIdx = int32(i)
		r.touchRound = -1
		r.fillHeap = -1
	}
	for _, f := range c.flows {
		f.frozen = false
		f.rate = 0
	}
	if c.rec != nil {
		for _, r := range c.res {
			r.traceGen = c.rec.gen
			r.removedLevel = noLevel
			r.hist = append(r.hist[:0], histEntry{level: 0, count: int32(r.count), avail: r.avail})
		}
		c.rec.res = append(c.rec.res[:0], c.res...)
	}
	heapFill(c.flows, c.res, fs, c.rec, 0)
}

// ---- layer 2: the frontier-incremental refill ----

// tryFrontier attempts to serve the pending recompute as a frontier refill
// of the recorded trace. Eligible when a trace exists, every dirty resource
// belongs to it (so the whole delta is inside the traced component and no
// other component needs re-deriving), no capacity changed, and every
// detached flow was frozen by the current trace generation. On success the
// refill ran, n.touched holds the refilled flows, and the caller skips
// component discovery entirely.
func (n *Network) tryFrontier() bool {
	t := n.trace
	if t == nil || n.refFill || len(t.levels) == 0 {
		return false
	}
	for _, r := range n.dirtyRes {
		if r.traceGen != t.gen || r.capDirty {
			return false
		}
	}
	for i := range n.deltaDetach {
		if rec := &n.deltaDetach[i]; rec.live && rec.gen != t.gen {
			return false
		}
	}
	for i := range n.deltaAttach {
		if rec := &n.deltaAttach[i]; rec.live && !rec.f.active {
			return false
		}
	}
	n.frontierRefill(t, n.frontierLevel(t))
	return true
}

// frontierLevel derives the restart level for the pending delta: the first
// trace level whose bottleneck selection or frozen set the delta touches.
// Levels strictly below re-derive with identical floats under the new flow
// set (DESIGN.md §13 gives the monotonicity argument), so their frozen
// flows keep their rates verbatim.
//
// A detached flow affects nothing below the level that froze it: earlier
// bottlenecks are off its route (it would have frozen there), and its
// departure only raises the shares of its own route's resources, which
// cannot steal an earlier level's first-strict-minimum. An attached flow
// affects the first level where one of its route's resources — with the
// flow's occurrences added to the count — undercuts the recorded share
// under the scan's tie-break, or where the recorded bottleneck lies on its
// route (the frozen set would gain the flow). The scan evaluates exactly
// the divisions the reference fill would perform, against the recorded
// per-level states.
func (n *Network) frontierLevel(t *fillTrace) int {
	n.deltaStamp++
	stamp := n.deltaStamp
	n.deltaRes = n.deltaRes[:0]
	note := func(route []*Resource, attach bool) {
		for _, r := range route {
			if r.deltaStamp != stamp {
				r.deltaStamp = stamp
				r.deltaAdd = 0
				r.deltaSub = 0
				r.attachMark = 0
				n.deltaRes = append(n.deltaRes, r)
			}
			if attach {
				r.deltaAdd++
				r.attachMark = stamp
			} else {
				r.deltaSub++
			}
		}
	}
	lmax := len(t.levels)
	for i := range n.deltaDetach {
		rec := &n.deltaDetach[i]
		if !rec.live {
			continue
		}
		note(rec.route, false)
		if int(rec.level) < lmax {
			lmax = int(rec.level)
		}
	}
	anyAttach := false
	for i := range n.deltaAttach {
		rec := &n.deltaAttach[i]
		if !rec.live {
			continue
		}
		anyAttach = true
		note(rec.f.route, true)
	}
	if len(n.deltaRes) == 0 {
		// Pure no-op delta (successions only): the route multiset is
		// unchanged and the whole trace stands.
		return lmax
	}
	for _, r := range n.deltaRes {
		r.histP = 0
	}
	for l := 0; l < lmax; l++ {
		lv := &t.levels[l]
		if anyAttach && lv.bneck.attachMark == stamp {
			return l // an attached flow would join this level's frozen set
		}
		for _, r := range n.deltaRes {
			dc := r.deltaAdd - r.deltaSub
			if dc <= 0 {
				// Net departures only raise this resource's share; it cannot
				// undercut a level it did not already win.
				continue
			}
			h := r.hist
			p := r.histP
			for int(p)+1 < len(h) && h[p+1].level <= int32(l) {
				p++
			}
			r.histP = p
			e := h[p]
			s := e.avail / float64(e.count+dc)
			if s < lv.share || (s == lv.share && r.orderIdx < lv.bneck.orderIdx) {
				return l
			}
		}
	}
	return lmax
}

// frontierRefill re-derives the traced component's allocation from level L:
// prefix-frozen flows keep their rates untouched; the suffix flows (plus
// the attached delta) refill through the heap from the reconstructed
// per-resource states, and the trace is truncated and re-recorded from L so
// the next delta can restart against it.
func (n *Network) frontierRefill(t *fillTrace, L int) {
	n.frontierReuses++
	stamp := n.deltaStamp
	// Suffix candidates: flows the old fill froze at levels >= L that are
	// still active, in their old freeze order, then the attached delta.
	// (Order within a level is immaterial for bit-identity — every frozen
	// flow subtracts the identical share — so any deterministic order
	// matches the reference; see DESIGN.md §13.)
	prefixLen := len(t.frozenSeq)
	if L < len(t.levels) {
		prefixLen = int(t.levels[L].frozenStart)
	}
	cands := n.touched[:0]
	for _, f := range t.frozenSeq[prefixLen:] {
		if !f.active || f.attachRec > 0 {
			// Departed, or re-attached since the last fill (a succession
			// outside a deferred window leaves the predecessor's freeze-
			// sequence slot and joins as an attach record): the delta loop
			// below owns the latter, and its detach record already removed
			// the old occurrences from the reconstructed counts.
			continue
		}
		f.prevRate = f.rate
		f.frozen = false
		f.rate = 0
		cands = append(cands, f)
	}
	for i := range n.deltaAttach {
		rec := &n.deltaAttach[i]
		if !rec.live {
			continue
		}
		f := rec.f
		f.prevRate = f.rate
		f.frozen = false
		f.rate = 0
		cands = append(cands, f)
	}
	// Reconstruct each surviving resource's (avail, count) at the selection
	// of level L: the recorded history gives the old state — avail is
	// already exact (no flow of the delta had subtracted anything before L)
	// — and the count shifts uniformly by the delta's net route occurrences
	// (every detached flow was still unfrozen throughout the preserved
	// prefix, and every attached flow freezes at or after L). Surviving
	// history entries take the same uniform shift so future restarts read
	// true counts.
	resList := n.refillRes[:0]
	for _, r := range t.res {
		var dc, add int32
		if r.deltaStamp == stamp {
			add = r.deltaAdd
			dc = add - r.deltaSub
		}
		if int(r.removedLevel) < L && add == 0 {
			// Removed before the restart level and not rejoined by an
			// attached flow: every flow through it froze in the preserved
			// prefix; its state and history stand as recorded. (A detached
			// flow cannot route through it: it froze at or above the restart
			// level, but every flow through this resource froze below it.)
			continue
		}
		h := r.hist
		p := sort.Search(len(h), func(i int) bool { return h[i].level > int32(L) }) - 1
		e := h[p]
		r.avail = e.avail
		r.count = int(e.count + dc)
		r.hist = h[:p+1]
		if dc != 0 {
			for i := range r.hist {
				r.hist[i].count += dc
			}
		}
		r.removedLevel = noLevel
		if r.count == 0 {
			// All its flows are prefix-frozen or departed: dead at the
			// restart boundary.
			r.removedLevel = int32(L)
		}
		r.touchRound = -1
		r.fillHeap = -1
		resList = append(resList, r)
	}
	n.refillRes = resList
	t.levels = t.levels[:L]
	t.frozenSeq = t.frozenSeq[:prefixLen]
	heapFill(cands, resList, &n.fill, t, int32(L))
	// Settle the flows whose rate changed at their outgoing rate. Prefix
	// flows keep their settlement debt untouched — that locality is the
	// whole point of the refill.
	for _, f := range cands {
		if f.rate != f.prevRate {
			n.settleFlowAt(f, f.prevRate)
		}
	}
	n.touched = cands
}

// FillRounds reports how many progressive-filling rounds (bottleneck
// selections) the network has performed.
func (n *Network) FillRounds() int64 { return n.fill.rounds }

// FillResScans reports how many resource examinations the fills performed:
// the reference loop scans every component resource every round; the heap
// fill pays the initial key build plus one examination per re-keyed
// resource per round.
func (n *Network) FillResScans() int64 { return n.fill.scans }

// FrontierReuses reports how many recomputes were served by a frontier
// refill of the recorded fill trace instead of a full component fill.
func (n *Network) FrontierReuses() int64 { return n.frontierReuses }
