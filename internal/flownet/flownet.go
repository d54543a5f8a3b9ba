// Package flownet simulates bandwidth sharing between concurrent data
// transfers as a fluid-flow network with max-min fair allocation.
//
// A Network holds named Resources (e.g. "pcie-in", "ssd-read"), each with a
// capacity in bytes/second. A Flow is a transfer of a fixed byte count routed
// through one or more resources; its instantaneous rate is the max-min fair
// share across every resource on its route (progressive filling). The network
// is advanced event-by-event: rates stay piecewise constant between flow
// arrivals, completions, and capacity changes.
//
// This models the paper's interconnect topology: a GPU↔SSD migration
// traverses both the SSD channel and the GPU's PCIe link, so saturating
// either throttles it, while GPU↔host migrations contend only on PCIe.
package flownet

import (
	"container/heap"
	"fmt"
	"math"

	"g10sim/internal/units"
)

// Resource is a shared link or device channel with finite bandwidth.
type Resource struct {
	Name string

	capacity float64 // bytes/sec
	// scratch fields used by the allocator.
	avail float64
	count int
	// regIdx is the registration order; a component's resource list is
	// sorted by it so bottleneck ties resolve exactly as a scan over every
	// registered resource would.
	regIdx int
	// busyStamp marks discovery by the current recompute's component flood.
	busyStamp uint64
	// dirty marks the resource as touched (a flow routed through it started,
	// completed, or succeeded; or its capacity changed) since the last
	// recompute. A connected component with no dirty resource kept its exact
	// allocation and is skipped.
	dirty bool
	// capDirty marks a capacity change since the last recompute; a frontier
	// refill cannot absorb one (shares depend on capacity from round zero),
	// so it forces a full fill of the resource's component.
	capDirty bool
	// Heap-fill scratch and fill-trace state (see fill.go). orderIdx is the
	// component-local registration order backing the heap key's tie-break;
	// hist/removedLevel/traceGen record this resource's history under the
	// current fill trace; the delta* fields are per-refill scan scratch.
	orderIdx     int32
	fillHeap     int32
	touchRound   int32
	fillShare    float64
	traceGen     uint32
	removedLevel int32
	histP        int32
	deltaStamp   uint32
	attachMark   uint32
	deltaAdd     int32
	deltaSub     int32
	hist         []histEntry
	// flows lists the active flows routed through this resource (arbitrary
	// order, swap-removed on completion) — the adjacency the scoped
	// recompute flood-fills dirty components through, so discovery cost
	// scales with the dirty subgraph, not the whole active set; the heap
	// fill also takes each bottleneck's flows from it. Maintained from each
	// flow's activation.
	flows []*Flow
}

// Capacity reports the resource's current bandwidth.
func (r *Resource) Capacity() units.Bandwidth { return units.Bandwidth(r.capacity) }

// Flow is one transfer in flight (or scheduled to start).
//
// Ownership: a flow belongs to the network until it completes. A delivered
// completion belongs to the driver that received it, which either succeeds
// it in place (Succeed) or hands it back with Release once nothing of its
// own still names it. A released flow is reused by a later StartAt, but
// only after the next rate recompute, so no pending delta record or fill
// trace can name it by then.
type Flow struct {
	ID    int64
	Label string
	// Size is the total byte count of the transfer.
	Size units.Bytes
	// Data is an arbitrary caller payload carried to completion handling.
	Data any
	// Owner tags the flow with the index of the tenant (cluster machine)
	// that started it, so event-driven schedulers can wake exactly the
	// tenants a completion batch affects. -1 when unowned.
	Owner int
	// StartAt is when the flow becomes active (creation time plus any
	// device latency the caller modeled).
	StartAt units.Time
	// CompletedAt is set when the flow finishes.
	CompletedAt units.Time

	net       *Network
	route     []*Resource
	remaining float64 // bytes
	rate      float64 // bytes/sec
	active    bool
	done      bool
	heapIdx   int
	frozen    bool // allocator scratch
	// prevRate is the rate before the current recompute; the completion
	// index re-keys a flow only when its rate actually changed.
	prevRate float64
	// compGen identifies this flow's current completion-heap entry; stale
	// entries (older generations, or entries of completed flows) are
	// discarded lazily when they surface at the heap top.
	compGen uint32
	inComp  bool
	// segIdx is the absolute index into the network's progress-segment log
	// up to which this flow's remaining byte count is settled: remaining is
	// exact as of segLog time segIdx and owed the per-segment deductions of
	// every later segment (settleFlow replays them on demand).
	segIdx int64
	// actIdx is this flow's slot in n.active, so the heap-driven reap can
	// swap-remove a completion without scanning the active set.
	actIdx int
	// resSlot[k] is this flow's slot in route[k].flows (adjacency
	// bookkeeping for O(1) detachment); fillStamp marks discovery by the
	// current recompute's flood fill. slotBuf backs resSlot for the common
	// short route so attachment allocates nothing.
	resSlot   []int32
	slotBuf   [4]int32
	fillStamp uint64
	// Fill-trace state (see fill.go): freezeLevel/traceGen stamp the filling
	// round that froze this flow under the current trace; attachRec/detachRec
	// are 1-based indices into the pending delta lists (0 = none).
	freezeLevel int32
	traceGen    uint32
	attachRec   int32
	detachRec   int32
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Rate reports the flow's current allocated bandwidth, applying any pending
// rate re-derivation first (rates are derived lazily between observation
// points).
func (f *Flow) Rate() units.Bandwidth {
	if f.net != nil {
		f.net.flushRates()
	}
	return units.Bandwidth(f.rate)
}

// Remaining reports the bytes not yet transferred, settling any progress
// segments elapsed since the flow's last observation point first.
func (f *Flow) Remaining() units.Bytes {
	if f.net != nil {
		f.net.settleFlow(f)
	}
	return units.Bytes(math.Ceil(f.remaining))
}

// Route returns the resources the flow traverses (nil once released).
func (f *Flow) Route() []*Resource { return f.route }

// Network is a set of resources and the flows traversing them.
type Network struct {
	now      units.Time
	nextID   int64
	resIndex map[string]*Resource
	res      []*Resource
	active   []*Flow
	dormant  dormantHeap
	// comp indexes the active flows by (absolute) completion time so
	// NextEvent is a heap peek instead of a scan over every active flow.
	// The heap is persistent across recomputes: a rate change re-keys only
	// the flows whose rate actually changed (generation-stamped entries;
	// superseded or completed entries are discarded lazily at the top).
	// Between re-keys a flow's absolute completion time is invariant, up to
	// float rounding, which minCompletion absorbs by re-evaluating
	// near-minimal candidates.
	comp        compHeap
	compScratch []compEntry
	heapMode    bool
	// busyStamp numbers component discoveries (see Resource.busyStamp and
	// Flow.fillStamp).
	busyStamp uint64
	// dirtyRes lists the resources marked dirty since the last recompute
	// (deduplicated via Resource.dirty); cleared when rates are re-derived.
	dirtyRes []*Resource
	// forceGlobalFill pins recompute to one component holding every active
	// flow, filled by the reference scan loop — the reference side of the
	// component-decomposition differential tests.
	forceGlobalFill bool
	// Component-decomposition scratch, reused across recomputes.
	comps    []component
	resStack []*Resource
	touched  []*Flow // flows in this recompute's dirty components
	// Fill trace and frontier-refill state (see fill.go). trace is the
	// recorded fill of the traced component (nil when none); traceBuf is the
	// reused backing object; the delta lists accumulate flow attach/detach
	// records between recomputes; refillRes is refill scratch.
	trace       *fillTrace
	traceBuf    *fillTrace
	traceGenSrc uint32
	deltaAttach []attachRec
	deltaDetach []detachRec
	deltaRes    []*Resource
	deltaStamp  uint32
	refillRes   []*Resource
	// refFill pins this network to the reference per-round-scan fill (no
	// heap, no trace, no frontier refills). Only this package's tests set
	// it, on the reference side of their differentials.
	refFill bool
	// doneBuf accumulates one AdvanceTo call's completions; reused.
	doneBuf []*Flow
	// retired holds flows handed back by Release since the last recompute;
	// free holds flows StartAt may reuse. recompute moves retired to free
	// once it has consumed the delta records that could still name them.
	// flowAllocs counts the Flow objects StartAt allocated fresh.
	retired    []*Flow
	free       []*Flow
	flowAllocs int64

	// Conveyor (chunk-train) bookkeeping. AdvanceEventwise opens a deferred
	// window around each internal event: reap skips its recompute and the
	// post-delivery settle() decides whether one is needed at all. When every
	// completion of the batch was replaced in place by Succeed and no
	// recompute intervened, the active route multiset — and therefore the
	// unique max-min allocation — is unchanged, and the event costs no
	// recompute (see DESIGN.md §10).
	//
	// deferSettle marks the reap-deferral window (inside AdvanceEventwise's
	// per-event advance); pendingSettle marks a deferred batch awaiting
	// settle; reapGen snapshots the recompute counter when the batch formed;
	// reapedN/succeededN count the batch's completions and in-place
	// successions.
	deferSettle   bool
	pendingSettle bool
	reapGen       int64
	reapedN       int
	succeededN    int

	// segLog is the progress-segment log: the times at which the clock
	// moved since the oldest unsettled flow's settlement point. segLog[0]
	// is the settlement horizon (absolute index segBase) and the last entry
	// always equals now, so segment i spans [segLog[i-1].at, segLog[i].at]
	// with precomputed width segLog[i].dt. progress appends one entry
	// per clock move — O(1) per event — and settleFlow replays a flow's
	// pending segments on demand. The log is compacted (all flows settled,
	// log collapsed) past a size bound.
	segLog  []segment
	segBase int64
	// reapScratch holds heap entries popped and re-keyed by one reap.
	reapScratch []compEntry

	// recomputes counts rate re-derivations; successions counts completions
	// advanced in place without one. Observability for tests and benchmarks:
	// a pure chunk train's event count scales with rate-change points, not
	// chunk count.
	recomputes  int64
	successions int64
	// progressTouches counts per-flow byte-accounting steps: one per
	// replayed segment per settlement. reapScans counts flows examined for
	// completion: the whole active set per reap when scanning, only popped
	// completion-heap candidates when heap-driven.
	progressTouches int64
	reapScans       int64
	// fill is the fill scratch, and counts progressive-filling rounds
	// (bottleneck selections) and the resource examinations those rounds
	// performed; frontierReuses counts recomputes served by a frontier
	// refill of the recorded fill trace instead of a full component fill.
	fill           fillState
	frontierReuses int64

	// nextEvCache memoises NextEvent between state changes: the drivers ask
	// for the next event several times per consumed event (the advance loop,
	// the scheduler's clock bound, the post-settle re-check), and each ask
	// otherwise pays a heap inspection. Any mutation — recompute, flow
	// start/succession, progress, reap — clears nextEvOK.
	nextEvCache units.Time
	nextEvOK    bool

	// ratesDirty defers rate re-derivation to the next observation point
	// (NextEvent, progress, Rate). Rates are only meaningful when simulated
	// time moves or an event time is asked for, so every mutation within one
	// instant — a transfer set starting five flows, a completion batch plus
	// its reactions — coalesces into a single recompute. Values at every
	// observation are identical to eager recomputation: the max-min
	// allocation is a pure function of the active route multiset and
	// capacities, not of the mutation order that produced them.
	ratesDirty bool
}

// dirtyRates marks the allocation stale; flushRates re-derives it at the
// next observation.
func (n *Network) dirtyRates() {
	n.ratesDirty = true
	n.nextEvOK = false
}

func (n *Network) flushRates() {
	if n.ratesDirty {
		n.ratesDirty = false
		n.recompute()
	}
}

// compEntry is one flow keyed by a completion time computed at some earlier
// clock value; it is valid while gen matches the flow's current generation
// and the flow is still active.
type compEntry struct {
	f   *Flow
	at  units.Time
	gen uint32
}

// compHeap is a hand-rolled min-heap of completion entries (ordered by
// (at, flow ID)); avoiding the container/heap interface keeps the per-event
// cost down.
type compHeap []compEntry

func compLess(a, b compEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.f.ID < b.f.ID
}

func (h compHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && compLess(h[r], h[l]) {
			least = r
		}
		if !compLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (h compHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !compLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h compHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *compHeap) push(e compEntry) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *compHeap) pop() compEntry {
	old := *h
	e := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	(*h).siftDown(0)
	return e
}

// segment is one progress-segment boundary: the clock value and the width
// (in seconds, converted once at append time) of the segment it closes.
type segment struct {
	at units.Time
	dt float64
}

// New returns an empty network at time zero.
func New() *Network {
	return &Network{
		resIndex: make(map[string]*Resource),
		segLog:   []segment{{}},
	}
}

// Now reports the network clock.
func (n *Network) Now() units.Time { return n.now }

// Recomputes reports how many max-min rate re-derivations the network has
// performed.
func (n *Network) Recomputes() int64 { return n.recomputes }

// Successions reports how many flow completions were advanced in place by
// Succeed without a rate recompute (the conveyor fast path).
func (n *Network) Successions() int64 { return n.successions }

// ProgressTouches reports how many per-flow byte-accounting steps the
// network has performed: every (flow, elapsed segment) deduction replayed
// at a settlement point. The count scales with rate-change points rather
// than events × flows.
func (n *Network) ProgressTouches() int64 { return n.progressTouches }

// ReapScans reports how many flows reap has examined for completion. The
// heap-driven reap examines only completion-heap candidates near the
// clock; below the heap threshold reap scans the whole active set.
func (n *Network) ReapScans() int64 { return n.reapScans }

// FlowAllocs reports how many Flow objects StartAt allocated fresh, rather
// than reusing one handed back by Release.
func (n *Network) FlowAllocs() int64 { return n.flowAllocs }

// AddResource registers a resource. Names must be unique.
func (n *Network) AddResource(name string, cap units.Bandwidth) *Resource {
	if _, dup := n.resIndex[name]; dup {
		panic(fmt.Sprintf("flownet: duplicate resource %q", name))
	}
	r := &Resource{Name: name, capacity: float64(cap), regIdx: len(n.res)}
	n.resIndex[name] = r
	n.res = append(n.res, r)
	return r
}

// Resource looks up a resource by name, or nil.
func (n *Network) Resource(name string) *Resource { return n.resIndex[name] }

// SetCapacity changes a resource's bandwidth effective now. Rates of all
// flows are re-derived immediately. Setting the current capacity again is a
// no-op: the existing allocation is reused unchanged.
func (n *Network) SetCapacity(r *Resource, cap units.Bandwidth) {
	if r.capacity == float64(cap) {
		return
	}
	r.capacity = float64(cap)
	r.capDirty = true
	n.markDirty(r)
	n.dirtyRates()
}

// Start launches a flow at the current time.
func (n *Network) Start(label string, size units.Bytes, data any, route ...*Resource) *Flow {
	return n.StartAt(label, size, n.now, data, route...)
}

// StartAt schedules a flow to become active at time at (>= now). Use this to
// model fixed access latencies (SSD read latency, fault-handling latency)
// preceding the bandwidth-bound part of a transfer.
func (n *Network) StartAt(label string, size units.Bytes, at units.Time, data any, route ...*Resource) *Flow {
	if len(route) == 0 {
		panic("flownet: flow with empty route")
	}
	if at < n.now {
		at = n.now
	}
	n.nextID++
	f := n.newFlow()
	f.ID = n.nextID
	f.Label = label
	f.Size = size
	f.Data = data
	f.Owner = -1
	f.StartAt = at
	f.net = n
	f.route = route
	f.remaining = float64(size)
	if f.remaining <= 0 {
		// Zero-byte flows complete instantly at their start time.
		f.remaining = 0
	}
	if at <= n.now {
		n.activate(f)
	} else {
		heap.Push(&n.dormant, f)
		n.nextEvOK = false
	}
	return f
}

// newFlow returns a zeroed flow: a released one when any is free, else a
// fresh allocation. A reused flow's completion generation moves past its
// old value, so completion-heap entries from its previous life stay stale.
func (n *Network) newFlow() *Flow {
	k := len(n.free) - 1
	if k < 0 {
		n.flowAllocs++
		return &Flow{}
	}
	f := n.free[k]
	n.free[k] = nil
	n.free = n.free[:k]
	*f = Flow{compGen: f.compGen + 1}
	return f
}

// Release hands a completed flow back to the network for reuse. Call it
// on a delivered flow that was not succeeded, once the caller holds no
// other reference to it. Release clears the flow's payload and route; the
// flow is reused only after the next rate recompute. Releasing an active,
// dormant, succeeded or already released flow panics.
func (n *Network) Release(f *Flow) {
	if !f.done || f.active || f.route == nil {
		panic("flownet: Release of a flow that is not a completed one")
	}
	f.Data = nil
	f.route = nil
	n.retired = append(n.retired, f)
}

func (n *Network) activate(f *Flow) {
	f.active = true
	f.segIdx = n.segTop()
	f.actIdx = len(n.active)
	n.active = append(n.active, f)
	n.attachFlow(f)
	n.noteAttach(f)
	n.markRouteDirty(f.route)
	n.dirtyRates()
}

// attachFlow registers f on each route resource's flow list.
func (n *Network) attachFlow(f *Flow) {
	if cap(f.resSlot) < len(f.route) {
		if len(f.route) <= len(f.slotBuf) {
			f.resSlot = f.slotBuf[:]
		} else {
			f.resSlot = make([]int32, len(f.route))
		}
	}
	f.resSlot = f.resSlot[:len(f.route)]
	for k, r := range f.route {
		f.resSlot[k] = int32(len(r.flows))
		r.flows = append(r.flows, f)
	}
}

// detachFlow swap-removes f from each route resource's flow list, fixing
// the displaced flow's slot. A route may name the same resource twice; the
// slot value disambiguates which of the displaced flow's entries moved.
func (n *Network) detachFlow(f *Flow) {
	for k, r := range f.route {
		s := f.resSlot[k]
		last := int32(len(r.flows) - 1)
		if moved := r.flows[last]; s != last {
			r.flows[s] = moved
			for k2, r2 := range moved.route {
				if r2 == r && moved.resSlot[k2] == last {
					moved.resSlot[k2] = s
					break
				}
			}
		}
		r.flows[last] = nil
		r.flows = r.flows[:last]
	}
}

// segTop is the absolute index of the newest progress segment boundary
// (whose time always equals now).
func (n *Network) segTop() int64 { return n.segBase + int64(len(n.segLog)) - 1 }

// NextEvent reports the earliest time at which the network's state changes on
// its own: a dormant flow activates or an active flow completes. Returns
// Forever when nothing is pending.
func (n *Network) NextEvent() units.Time {
	if n.nextEvOK {
		return n.nextEvCache
	}
	n.flushRates()
	next := units.Forever
	if len(n.dormant) > 0 {
		next = units.MinTime(next, n.dormant[0].StartAt)
	}
	next = units.MinTime(next, n.minCompletion())
	n.nextEvCache = next
	n.nextEvOK = true
	return next
}

// completionSlack bounds how far a stored completion time can drift from
// the same flow's completion time re-evaluated at a later clock value. The
// two differ only by float64 rounding around the ceil boundary (at most
// ±1ns for any sane horizon) plus one more for the ceil itself.
const completionSlack = 4

// stale reports whether a heap entry no longer represents its flow: the
// flow completed, or a rate change pushed a newer-generation entry.
func (e compEntry) stale() bool { return !e.f.active || e.gen != e.f.compGen }

// dropStaleTop removes superseded entries from the heap top until the
// minimum entry is valid (or the heap is empty).
func (n *Network) dropStaleTop() {
	for len(n.comp) > 0 && n.comp[0].stale() {
		n.comp.pop()
	}
}

// minCompletion returns min over active flows of completionTime evaluated
// now — exactly the value a linear scan would produce. The heap keys are
// completion times stored when the flow's rate last changed; they are
// within completionSlack of the current value, so the true minimum is found
// by re-evaluating every valid candidate whose stored key is within the
// slack of the best current value seen so far.
func (n *Network) minCompletion() units.Time {
	if !n.heapMode {
		// Below the heap threshold (or idle): scan directly.
		best := units.Forever
		for _, f := range n.active {
			best = units.MinTime(best, n.completionTime(f))
		}
		return best
	}
	n.dropStaleTop()
	if len(n.comp) == 0 {
		return units.Forever
	}
	if n.comp[0].at == units.Forever {
		// All keys at or past the heap minimum are Forever; rates have not
		// changed since they were stored, so every flow is still stalled.
		return units.Forever
	}
	best := units.Forever
	scratch := n.compScratch[:0]
	for len(n.comp) > 0 {
		threshold := units.Forever
		if best < units.Forever-completionSlack {
			threshold = best + completionSlack
		}
		if n.comp[0].at > threshold {
			break
		}
		e := n.comp.pop()
		if e.stale() {
			continue
		}
		e.at = n.completionTime(e.f)
		scratch = append(scratch, e)
		if e.at < best {
			best = e.at
		}
	}
	for _, e := range scratch {
		n.comp.push(e)
	}
	n.compScratch = scratch[:0]
	return best
}

// Idle reports whether no flows are active or pending.
func (n *Network) Idle() bool { return len(n.active) == 0 && len(n.dormant) == 0 }

func (n *Network) completionTime(f *Flow) units.Time {
	n.settleFlow(f)
	if f.remaining < 0.5 {
		// At or below the completion threshold: finishes at the next reap.
		return n.now
	}
	if f.rate <= 0 {
		return units.Forever
	}
	secs := f.remaining / f.rate
	d := units.Duration(math.Ceil(secs * float64(units.Second)))
	if d < 1 {
		d = 1
	}
	return n.now + d
}

// AdvanceTo moves the clock to t, processing flow activations and
// completions in chronological order, and returns the flows that completed
// in (previous now, t], ordered by completion time. t must be >= Now().
// The returned slice is reused by the next AdvanceTo call.
func (n *Network) AdvanceTo(t units.Time) []*Flow {
	if t < n.now {
		panic(fmt.Sprintf("flownet: AdvanceTo(%v) before now=%v", t, n.now))
	}
	n.doneBuf = n.doneBuf[:0]
	for {
		e := n.NextEvent()
		if e > t {
			break
		}
		n.step(e)
	}
	n.progress(t)
	n.reap()
	return n.doneBuf
}

// AdvanceEventwise moves the clock to t like AdvanceTo, but hands each
// batch of completions to deliver at the moment it lands rather than
// collecting everything until t — so callers can react (start new flows,
// change capacities) at event times. deliver runs once per internal event,
// possibly with an empty batch (a dormant-flow activation); flows or
// capacity changes it introduces before t are processed in order.
func (n *Network) AdvanceEventwise(t units.Time, deliver func(done []*Flow)) {
	for {
		e := n.NextEvent()
		if e > t {
			break
		}
		n.deferSettle = true
		done := n.AdvanceTo(e)
		n.deferSettle = false
		deliver(done)
		n.settle()
	}
	// The final advance normally completes nothing, but a flow whose
	// remaining bytes round below the completion threshold at t can still
	// finish here — deliver those too rather than dropping them.
	n.deferSettle = true
	done := n.AdvanceTo(t)
	n.deferSettle = false
	if len(done) > 0 {
		deliver(done)
	}
	n.settle()
}

// settle closes a deferred completion batch: if every completed flow was
// replaced in place by Succeed and no recompute intervened, the active route
// multiset is unchanged and the rates in force are already the unique
// max-min allocation — the whole event cost no recompute. Any other outcome
// (a chunk train ended, a fetch blocked on memory, a capacity change, a new
// or activated flow) re-derives rates once, exactly as the per-flow path
// would have.
func (n *Network) settle() {
	if !n.pendingSettle {
		return
	}
	n.pendingSettle = false
	if !n.ratesDirty && n.recomputes == n.reapGen && n.succeededN == n.reapedN {
		n.successions += int64(n.succeededN)
		return
	}
	n.dirtyRates()
}

// Succeed replaces a just-completed flow with its successor in place: same
// route, same owner, same payload, active immediately at the current clock
// with no setup latency. It must be called from within an AdvanceEventwise
// delivery callback, on a flow of the batch being delivered. When the whole
// batch is succeeded this way the event skips rate recomputation entirely
// (the route multiset is unchanged, so the max-min allocation is too); in
// every other situation the network falls back to a full re-derivation, so
// semantics never depend on the fast path firing. The flow object is reused;
// it carries a fresh ID, Size, StartAt, and remaining byte count, exactly as
// a StartAt of the successor would have produced.
func (n *Network) Succeed(f *Flow, size units.Bytes) *Flow {
	if !f.done || f.active {
		panic("flownet: Succeed on a flow that has not completed")
	}
	n.nextID++
	f.ID = n.nextID
	f.Size = size
	f.remaining = float64(size)
	if f.remaining < 0 {
		f.remaining = 0
	}
	f.done = false
	f.active = true
	f.StartAt = n.now
	f.CompletedAt = 0
	f.segIdx = n.segTop()
	f.actIdx = len(n.active)
	n.active = append(n.active, f)
	n.attachFlow(f)
	n.nextEvOK = false
	if n.pendingSettle {
		// Deferred window: keep the predecessor's rate (identical by max-min
		// uniqueness if the batch stays pure; otherwise settle re-derives).
		// The succession is transparent to the fill trace — same flow object,
		// same route, same rate, completion entry pushed below — so the
		// predecessor's detach record is cancelled and no attach is made.
		// That transparency only holds while the completion's detach record
		// is still pending. It can already be gone: a recompute inside the
		// delivery window (a Rate/NextEvent query after the callback changed
		// something) consumed it — the trace was re-derived without the
		// completed predecessor — or the predecessor activated in this same
		// window and noteDetach annihilated the attach/detach pair, so no
		// trace ever saw the flow. Either way the successor must re-enter
		// the delta as the arrival it is, or it would run invisible to every
		// future frontier reconstruction.
		// And since that recompute may have re-derived the allocation
		// without the predecessor, the carried rate is no longer protected
		// by max-min uniqueness: the route must be marked dirty so the
		// scoped fallback paths revisit this component when settle
		// re-derives.
		if f.detachRec > 0 {
			n.cancelDetach(f)
		} else {
			n.noteAttach(f)
			n.markRouteDirty(f.route)
		}
		n.succeededN++
		if n.heapMode {
			f.compGen++
			f.inComp = true
			n.comp.push(compEntry{f: f, at: n.completionTime(f), gen: f.compGen})
		} else {
			f.inComp = false
		}
		return f
	}
	// Outside a deferred delivery (plain AdvanceTo callers): equivalent to
	// starting the successor normally. The predecessor's detach record stays
	// and an attach record joins it, so a frontier refill re-derives — and
	// re-keys — the successor like any other arrival.
	f.compGen++
	f.inComp = false
	n.noteAttach(f)
	n.markRouteDirty(f.route)
	n.dirtyRates()
	return f
}

// step advances exactly to internal event time e, handling activations and
// completions there. reap already re-derives rates when flows finish, so a
// second recompute is only needed if dormant flows activated afterwards.
func (n *Network) step(e units.Time) {
	n.progress(e)
	n.reap()
	activated := false
	for len(n.dormant) > 0 && n.dormant[0].StartAt <= n.now {
		f := heap.Pop(&n.dormant).(*Flow)
		f.active = true
		f.segIdx = n.segTop()
		f.actIdx = len(n.active)
		n.active = append(n.active, f)
		n.attachFlow(f)
		n.noteAttach(f)
		n.markRouteDirty(f.route)
		activated = true
	}
	if activated {
		n.dirtyRates()
	}
}

// progress moves the clock to to. It only records the segment boundary —
// O(1) per event; per-flow byte deduction is deferred to settlement points
// (rate change, completion, query).
func (n *Network) progress(to units.Time) {
	if to <= n.now {
		return
	}
	n.flushRates()
	n.nextEvOK = false
	dt := (to - n.now).Seconds()
	n.now = to
	n.segLog = append(n.segLog, segment{at: to, dt: dt})
	if len(n.segLog) >= segLogCompactLimit {
		n.compactSegLog()
	}
}

// segLogCompactLimit bounds the retained segment log. Compaction settles
// every active flow — work each would do anyway at its next settlement
// point (a (flow, segment) pair is replayed at most once) — and collapses
// the log to its newest boundary.
const segLogCompactLimit = 1024

func (n *Network) compactSegLog() {
	for _, f := range n.active {
		n.settleFlow(f)
	}
	last := n.segLog[len(n.segLog)-1]
	n.segBase += int64(len(n.segLog)) - 1
	n.segLog = n.segLog[:1]
	n.segLog[0] = segment{at: last.at}
}

// settleFlow brings f's remaining byte count up to the current clock by
// replaying the per-segment rate×dt deductions between f's last settlement
// point and now, at the flow's current rate (constant across its pending segments by construction:
// every rate change settles the flow with the outgoing rate first — see
// the post-fill settle loops in recompute).
func (n *Network) settleFlow(f *Flow) { n.settleFlowAt(f, f.rate) }

// settleFlowAt replays f's pending segments at the given rate, one
// clamped rate×dt deduction per segment in order — the FP replay rule:
// remaining values do not depend on where the settlement points fall, as
// they would with one fused rate×elapsed multiply.
func (n *Network) settleFlowAt(f *Flow, rate float64) {
	top := n.segTop()
	if f.segIdx >= top || !f.active {
		return
	}
	if rate <= 0 {
		f.segIdx = top // no bytes moved
		return
	}
	segs := n.segLog[f.segIdx-n.segBase:]
	n.progressTouches += int64(len(segs) - 1)
	rem := f.remaining
	for _, s := range segs[1:] {
		moved := rate * s.dt
		if moved > rem {
			moved = rem
		}
		rem -= moved
	}
	f.remaining = rem
	f.segIdx = top
}

// reap removes finished flows from the active set (remaining below half a
// byte counts as finished, absorbing float error), appending them to
// doneBuf ordered by flow ID within the batch. In heap mode the candidates
// come from the completion index — cost proportional to flows actually near
// completion; below the heap threshold every active flow is scanned.
func (n *Network) reap() {
	start := len(n.doneBuf)
	if n.heapMode {
		n.reapHeap()
	} else {
		n.reapScan()
	}
	if done := n.doneBuf[start:]; len(done) > 0 {
		if n.deferSettle {
			// Conveyor window: leave rates as they are; settle() re-derives
			// after delivery unless every completion is succeeded in place.
			// reapGen is pinned at the first batch of the window, so any
			// intervening recompute (a dormant activation, a second reap)
			// disqualifies the fast path for the whole window.
			if !n.pendingSettle {
				n.pendingSettle = true
				n.reapGen = n.recomputes
				n.reapedN, n.succeededN = 0, 0
			}
			n.reapedN += len(done)
		} else {
			n.dirtyRates()
		}
		n.nextEvOK = false
		// Order the batch by flow ID. Insertion sort: batches are almost
		// always one or two flows, and this avoids sort.Slice's closure and
		// swapper allocations on the per-event path.
		for i := 1; i < len(done); i++ {
			f := done[i]
			j := i - 1
			for j >= 0 && done[j].ID > f.ID {
				done[j+1] = done[j]
				j--
			}
			done[j+1] = f
		}
	}
}

// reapScan examines every active flow for completion, compacting the
// active set in place — the direct path while the completion heap is down.
func (n *Network) reapScan() {
	n.reapScans += int64(len(n.active))
	kept := n.active[:0]
	for _, f := range n.active {
		n.settleFlow(f)
		if f.remaining < 0.5 {
			n.finish(f)
		} else {
			f.actIdx = len(kept)
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = kept
}

// reapSlack is how far past the clock reap looks into the completion heap
// for candidates, in nanoseconds. A stored key can sit later than the
// moment the flow's remaining bytes cross the half-byte completion
// threshold by up to completionSlack of float drift plus 0.5/rate seconds
// of ceil headroom; 256ns covers every rate above ~2 MB/s — far below any
// allocation this simulator produces — so the heap-driven reap completes
// flows at exactly the events a scan of the active set would.
const reapSlack = 256

// reapHeap pops completion candidates from the heap: every entry keyed at
// or before now+reapSlack is settled and either finished or re-keyed with
// its freshly evaluated completion time.
func (n *Network) reapHeap() {
	if len(n.comp) == 0 {
		return
	}
	limit := n.now + reapSlack
	scratch := n.reapScratch[:0]
	for len(n.comp) > 0 && n.comp[0].at <= limit {
		e := n.comp.pop()
		if e.stale() {
			continue
		}
		n.reapScans++
		n.settleFlow(e.f)
		if e.f.remaining < 0.5 {
			n.removeActive(e.f)
			n.finish(e.f)
		} else {
			e.at = n.completionTime(e.f)
			scratch = append(scratch, e)
		}
	}
	for _, e := range scratch {
		n.comp.push(e)
	}
	n.reapScratch = scratch[:0]
}

// finish marks f completed at the current clock and appends it to doneBuf.
// The caller removes it from the active set.
func (n *Network) finish(f *Flow) {
	f.remaining = 0
	f.done = true
	f.active = false
	f.inComp = false
	f.CompletedAt = n.now
	n.detachFlow(f)
	n.noteDetach(f)
	n.markRouteDirty(f.route)
	n.doneBuf = append(n.doneBuf, f)
}

// Abort cancels a flow that will never complete: its byte accounting is
// settled up to now, it leaves the active set (or the dormant heap if it
// has not started), and it is marked done without ever joining a completion
// batch — its payload is not delivered. The fault-injection layer uses this
// to tear down a crashed tenant's in-flight transfers. Call it between
// AdvanceEventwise calls, never from inside a delivery callback; aborting a
// nil or already-finished flow is a no-op.
func (n *Network) Abort(f *Flow) {
	if f == nil || f.done {
		return
	}
	if !f.active {
		// Dormant: scheduled but not yet started.
		if f.heapIdx >= 0 {
			heap.Remove(&n.dormant, f.heapIdx)
		}
		f.done = true
		f.CompletedAt = n.now
		n.nextEvOK = false
		return
	}
	n.settleFlow(f)
	n.removeActive(f)
	f.done = true
	f.active = false
	f.inComp = false
	f.CompletedAt = n.now
	n.detachFlow(f)
	n.noteDetach(f)
	n.markRouteDirty(f.route)
	n.dirtyRates()
}

// removeActive swap-removes f from the active set. The fill's results do
// not depend on active order (each round's share is a pure function of the
// busy resources, and every flow frozen in a round subtracts the same
// value), and completion batches are sorted by ID, so reordering here is
// unobservable.
func (n *Network) removeActive(f *Flow) {
	i, last := f.actIdx, len(n.active)-1
	n.active[i] = n.active[last]
	n.active[i].actIdx = i
	n.active[last] = nil
	n.active = n.active[:last]
}

// recompute derives max-min fair rates for all active flows by progressive
// filling: repeatedly find the most constrained resource, give its flows
// their equal share, freeze them, and remove that capacity. When the whole
// delta since the last recompute lies inside the recorded fill trace, a
// frontier refill re-derives only the affected suffix (fill.go); otherwise
// the dirty connected components of the flow/resource graph refill
// (components.go), and components untouched since the last recompute keep
// their allocation verbatim — bit-identical to one fill over every flow,
// because the max-min allocation factors across components. Either way the
// completion index is re-keyed only for the refilled flows whose rate
// actually changed.
func (n *Network) recompute() {
	n.recomputes++
	n.nextEvOK = false
	if !n.tryFrontier() {
		n.recomputeComponents()
	}
	for _, r := range n.dirtyRes {
		r.dirty = false
		r.capDirty = false
	}
	n.dirtyRes = n.dirtyRes[:0]
	n.clearDeltas()
	// No delta record names a retired flow any more, and the fill just
	// dropped every departed flow from the trace: they may be reused.
	n.free = append(n.free, n.retired...)
	clear(n.retired)
	n.retired = n.retired[:0]
	n.rekeyCompletions(n.touched)
	// Restore the steady-state invariant prevRate == rate, so the next
	// scoped recompute and re-key can trust that untouched flows carry
	// unchanged rates (and valid completion keys).
	for _, f := range n.touched {
		f.prevRate = f.rate
	}
}

// rekeyCompletions refreshes the completion index after a recompute. Tiny
// active sets skip the heap entirely — a direct scan is cheaper than
// maintaining it; above the threshold the heap is persistent and only flows
// whose rate changed get a new (generation-bumped) entry. Only the
// recompute's touched flows are examined: untouched flows kept their rate
// (prevRate == rate between recomputes), so their absolute completion
// times — and heap entries — are still valid.
func (n *Network) rekeyCompletions(touched []*Flow) {
	if len(n.active) <= compHeapThreshold {
		if n.heapMode {
			n.heapMode = false
			n.comp = n.comp[:0]
			for _, f := range n.active {
				f.inComp = false
			}
		}
		return
	}
	changed := 0
	if n.heapMode {
		for _, f := range touched {
			if !f.inComp || f.rate != f.prevRate {
				changed++
			}
		}
	}
	// When a recompute moved most rates (one shared bottleneck ripples to
	// every flow — the common single-machine case), a wholesale rebuild is
	// cheaper than per-entry pushes into a garbage-laden heap: heap.init is
	// O(F) and leaves no stale entries. The incremental path pays off when
	// ripples are sparse — a fleet's flows on disjoint PCIe links keep
	// their keys. The rebuild also runs when lazily discarded garbage has
	// accumulated past a small multiple of the live entries.
	if !n.heapMode || 4*changed >= len(n.active) || len(n.comp) > 4*len(n.active)+64 {
		n.heapMode = true
		n.comp = n.comp[:0]
		for _, f := range n.active {
			f.compGen++
			f.inComp = true
			n.comp = append(n.comp, compEntry{f: f, at: n.completionTime(f), gen: f.compGen})
		}
		n.comp.init()
		return
	}
	for _, f := range touched {
		if f.inComp && f.rate == f.prevRate {
			continue // absolute completion time unchanged; entry still valid
		}
		f.compGen++
		f.inComp = true
		n.comp.push(compEntry{f: f, at: n.completionTime(f), gen: f.compGen})
	}
}

// compHeapThreshold is the active-flow count above which NextEvent switches
// from a direct scan to the completion-time heap.
const compHeapThreshold = 12

// certTol is CheckMaxMin's relative slack: a later filling level's share
// can round one ulp below an earlier level's, and the clamped subtractions
// leave ulp-sized residue in a saturated resource's load.
const certTol = 1e-9

// CheckMaxMin verifies the max-min optimality certificate on the current
// allocation, independently of how the fill derived it: no resource carries
// more than its capacity, and every active flow crosses a saturated
// resource on which no flow has a higher rate (its bottleneck). An
// allocation with both properties is the unique max-min fair one. Loads
// count route occurrences, as the fill does: a route naming a resource
// twice loads it twice. Every comparison allows certTol slack. It reports
// the first violation.
func (n *Network) CheckMaxMin() error {
	n.flushRates()
	load := make([]float64, len(n.res))
	top := make([]float64, len(n.res))
	for i, r := range n.res {
		for _, f := range r.flows {
			load[i] += f.rate
			top[i] = math.Max(top[i], f.rate)
		}
		if load[i] > r.capacity*(1+certTol) {
			return fmt.Errorf("flownet: max-min certificate: %s carries %v B/s over capacity %v", r.Name, load[i], r.capacity)
		}
	}
	for _, f := range n.active {
		bottlenecked := false
		for _, r := range f.route {
			if load[r.regIdx] >= r.capacity*(1-certTol) && top[r.regIdx] <= f.rate*(1+certTol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flownet: max-min certificate: flow %s at %v B/s has no saturated resource it is maximal on", f.Label, f.rate)
		}
	}
	return nil
}

func flowUses(f *Flow, r *Resource) bool {
	for _, rr := range f.route {
		if rr == r {
			return true
		}
	}
	return false
}

// dormantHeap orders scheduled-but-not-started flows by start time.
type dormantHeap []*Flow

func (h dormantHeap) Len() int { return len(h) }
func (h dormantHeap) Less(i, j int) bool {
	if h[i].StartAt != h[j].StartAt {
		return h[i].StartAt < h[j].StartAt
	}
	return h[i].ID < h[j].ID
}
func (h dormantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *dormantHeap) Push(x any) {
	f := x.(*Flow)
	f.heapIdx = len(*h)
	*h = append(*h, f)
}
func (h *dormantHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	f.heapIdx = -1 // no longer in the heap
	return f
}
