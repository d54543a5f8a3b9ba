// Package planner implements G10's smart tensor migration scheduler: the
// smart eviction algorithm of §4.3 (Algorithm 1), the eviction-destination
// policy (SSD first, host when the SSD channel saturates), and the smart
// prefetching pass of §4.4 (latest-safe prefetch times, eagerly rescheduled
// earlier while GPU memory allows). Its output is the instrumented program
// of Figure 9: the kernel stream annotated with g10_alloc / g10_free /
// g10_pre_evict / g10_prefetch instructions at kernel boundaries.
//
// The planner works entirely on the estimated timeline (profiled kernel
// durations) and tracks three global states, exactly as §4.3 describes:
// the set of candidate inactive periods, the estimated memory pressure over
// time, and the estimated per-channel bandwidth utilization.
package planner

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// Config holds the planning-time view of the system (Table 2 defaults).
type Config struct {
	GPUCapacity  units.Bytes
	HostCapacity units.Bytes
	// UseHost enables host memory as an eviction destination; disabled for
	// the G10-GDS ablation.
	UseHost bool
	// UseSSD enables the SSD as an eviction destination.
	UseSSD bool

	SSDWriteBW  units.Bandwidth
	SSDReadBW   units.Bandwidth
	HostWriteBW units.Bandwidth // GPU -> host (PCIe-bound)
	HostReadBW  units.Bandwidth // host -> GPU (PCIe-bound)
}

const (
	// ssdFullThreshold is the busy fraction above which the to-SSD channel
	// counts as "full" in Algorithm 1's destination choice.
	ssdFullThreshold = 0.85
	// maxDecisions bounds the eviction search (safety valve).
	maxDecisions = 200000
)

// Default returns the paper's system configuration: 40 GB GPU, 128 GB host,
// Z-NAND SSD bandwidths, PCIe 3.0 ×16 host link.
func Default() Config {
	return Config{
		GPUCapacity:  40 * units.GB,
		HostCapacity: 128 * units.GB,
		UseHost:      true,
		UseSSD:       true,
		SSDWriteBW:   units.GBps(3.0),
		SSDReadBW:    units.GBps(3.2),
		HostWriteBW:  units.GBps(15.754),
		HostReadBW:   units.GBps(15.754),
	}
}

func (c Config) withDefaults() Config {
	if !c.UseSSD && !c.UseHost {
		c.UseSSD = true
	}
	return c
}

// Decision is one scheduled eviction/prefetch pair for one inactive period.
type Decision struct {
	Period *vitality.Period
	Target uvm.Location // InFlash or InHost
	// EvictBoundary: the g10_pre_evict instruction is instrumented before
	// kernel EvictBoundary (right after the period's last-use kernel).
	EvictBoundary int
	// PrefetchBoundary: the g10_prefetch instruction is instrumented
	// before kernel PrefetchBoundary.
	PrefetchBoundary int
	// Estimated times on the planning timeline.
	EvictDone     units.Time
	PrefetchStart units.Time
	Deadline      units.Time
}

// Plan is the scheduler's output.
type Plan struct {
	Analysis  *vitality.Analysis
	Config    Config
	Decisions []Decision
	Program   *Program
	// PeakPressure is the planned maximum GPU memory pressure.
	PeakPressure units.Bytes
	// ResidualOverflow is how far the planned pressure still exceeds the
	// GPU capacity (0 when the plan fully fits; the runtime pays faults
	// for any residual).
	ResidualOverflow units.Bytes
	// PlannedSSDBytes / PlannedHostBytes are the eviction volumes by
	// destination (one direction; prefetch doubles them).
	PlannedSSDBytes  units.Bytes
	PlannedHostBytes units.Bytes
}

// planner carries Algorithm 1's three global states.
type planner struct {
	a   *vitality.Analysis
	cfg Config

	tl       *timeline
	pressure []float64 // bytes per kernel slot
	hostUsed []float64 // bytes per kernel slot

	// Derived indexes over the eviction-phase state (see DESIGN.md §4):
	// excess marks slots whose pressure exceeds GPU capacity (the only
	// slots that contribute to a candidate's benefit integral);
	// presTree/hostTree maintain range maxima over pressure and hostUsed.
	excess   bitset
	presTree *maxTree
	hostTree *maxTree

	ssdWrite, ssdRead   *channel
	hostWrite, hostRead *channel

	decisions []Decision
	// prefetchSlots records each decision's final global prefetch slot from
	// the eager-rescheduling walk (parallel to decisions); the online
	// re-timing layer anchors on it.
	prefetchSlots []int
}

// New runs the full scheduling pipeline and returns the plan.
func New(a *vitality.Analysis, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	n := len(a.Graph.Kernels)
	pl := &planner{
		a:        a,
		cfg:      cfg,
		tl:       newTimeline(a.Starts),
		pressure: make([]float64, n),
		hostUsed: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		pl.pressure[k] = float64(a.AliveBytes[k])
	}
	capBytes := float64(cfg.GPUCapacity)
	pl.excess = newBitset(n)
	for k := 0; k < n; k++ {
		if pl.pressure[k]-capBytes > 0 {
			pl.excess.set(k)
		}
	}
	pl.presTree = newMaxTree(pl.pressure)
	pl.hostTree = newMaxTree(pl.hostUsed)
	pl.ssdWrite = newChannel(pl.tl, cfg.SSDWriteBW)
	pl.ssdRead = newChannel(pl.tl, cfg.SSDReadBW)
	pl.hostWrite = newChannel(pl.tl, cfg.HostWriteBW)
	pl.hostRead = newChannel(pl.tl, cfg.HostReadBW)

	pl.scheduleEvictions()
	pl.schedulePrefetches()

	plan := &Plan{
		Analysis:  a,
		Config:    cfg,
		Decisions: pl.decisions,
	}
	for k := 0; k < n; k++ {
		b := units.Bytes(pl.pressure[k])
		if b > plan.PeakPressure {
			plan.PeakPressure = b
		}
	}
	if plan.PeakPressure > cfg.GPUCapacity {
		plan.ResidualOverflow = plan.PeakPressure - cfg.GPUCapacity
	}
	for i := range pl.decisions {
		d := &pl.decisions[i]
		if d.Target == uvm.InFlash {
			plan.PlannedSSDBytes += d.Period.Tensor.Size
		} else {
			plan.PlannedHostBytes += d.Period.Tensor.Size
		}
	}
	plan.Program = emit(a, pl.decisions)
	plan.Program.retime = &retimeState{
		a:             a,
		cfg:           cfg,
		tl:            pl.tl,
		decisions:     pl.decisions,
		prefetchSlots: pl.prefetchSlots,
	}
	return plan
}

// ---- Phase 1: smart tensor eviction (Algorithm 1) ----

// candidate is a heap entry for the lazy-greedy search. Benefits only
// decrease as pressure drops, so a popped candidate whose recomputed ratio
// still dominates the next entry is the true argmax.
type candidate struct {
	period *vitality.Period
	ratio  float64 // benefit/cost at last evaluation
}

type candHeap []candidate

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].ratio > h[j].ratio }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any          { old := *h; c := old[len(old)-1]; *h = old[:len(old)-1]; return c }
func (h candHeap) peekRatio() float64 { return h[0].ratio }

func (pl *planner) scheduleEvictions() {
	cap := float64(pl.cfg.GPUCapacity)

	h := &candHeap{}
	for i := range pl.a.Periods {
		p := &pl.a.Periods[i]
		ratio := pl.evalRatio(p)
		if ratio > 0 {
			*h = append(*h, candidate{period: p, ratio: ratio})
		}
	}
	heap.Init(h)

	for len(*h) > 0 && len(pl.decisions) < maxDecisions {
		if pl.maxExcess(cap) <= 0 {
			break // Algorithm 1 line 3: pressure fits — done.
		}
		c := heap.Pop(h).(candidate)
		ratio := pl.evalRatio(c.period)
		if ratio <= 0 {
			continue // no longer beneficial; drop (benefit is monotone).
		}
		if h.Len() > 0 && ratio < h.peekRatio() {
			// Stale value: reinsert with the fresh ratio.
			heap.Push(h, candidate{period: c.period, ratio: ratio})
			continue
		}
		pl.commit(c.period)
	}
}

// maxExcess reports the largest pressure overshoot in bytes. Subtracting
// the capacity is monotone under float64 rounding, so the maximum of
// (pressure - cap) is the (maintained) maximum pressure minus cap.
func (pl *planner) maxExcess(cap float64) float64 {
	return pl.presTree.rootMax() - cap
}

// evictCost is Algorithm 1's candidate cost: eviction plus prefetch latency
// on the chosen destination's channels.
func (pl *planner) evictCost(size units.Bytes, target uvm.Location) float64 {
	if target == uvm.InFlash {
		return float64(size)/float64(pl.cfg.SSDWriteBW) + float64(size)/float64(pl.cfg.SSDReadBW)
	}
	return float64(size)/float64(pl.cfg.HostWriteBW) + float64(size)/float64(pl.cfg.HostReadBW)
}

// chooseTarget applies Algorithm 1's destination policy (lines 7–17): evict
// to the SSD unless its write channel is full over the eviction window and
// the host has room — and fall back to whichever destination is feasible
// when only one can complete the round trip inside the period.
func (pl *planner) chooseTarget(p *vitality.Period) (target uvm.Location, from, to units.Time, ok bool) {
	size := p.Tensor.Size
	var sFrom, sTo, hFrom, hTo units.Time
	ssdOK, hostOK := false, false
	if pl.cfg.UseSSD {
		sFrom, sTo, ssdOK = pl.freeWindow(p, uvm.InFlash)
	}
	if pl.cfg.UseHost && pl.hostFits(p, size) {
		hFrom, hTo, hostOK = pl.freeWindow(p, uvm.InHost)
	}
	switch {
	case ssdOK && hostOK:
		ts := units.TransferTime(size, pl.cfg.SSDWriteBW)
		ssdFull := pl.ssdWrite.busyFrac(p.Start, p.Start+ts) >= ssdFullThreshold
		if ssdFull {
			return uvm.InHost, hFrom, hTo, true
		}
		return uvm.InFlash, sFrom, sTo, true
	case ssdOK:
		return uvm.InFlash, sFrom, sTo, true
	case hostOK:
		return uvm.InHost, hFrom, hTo, true
	default:
		return uvm.Unmapped, 0, 0, false
	}
}

// evalRatio computes the candidate's current benefit/cost: the pressure-
// above-capacity area the eviction removes (Figure 7's shaded area) divided
// by the I/O time it occupies.
func (pl *planner) evalRatio(p *vitality.Period) float64 {
	target, from, to, ok := pl.chooseTarget(p)
	if !ok {
		return 0
	}
	cost := pl.evictCost(p.Tensor.Size, target)
	if cost <= 0 {
		return 0
	}
	return pl.excessArea(from, to, float64(p.Tensor.Size)) / cost
}

// freeWindow previews the interval during which the eviction would leave
// GPU memory free: from the (contention-aware) eviction completion to the
// (analytic) latest-safe prefetch start.
func (pl *planner) freeWindow(p *vitality.Period, target uvm.Location) (from, to units.Time, ok bool) {
	size := p.Tensor.Size
	wch, rbw := pl.ssdWrite, pl.cfg.SSDReadBW
	if target == uvm.InHost {
		wch, rbw = pl.hostWrite, pl.cfg.HostReadBW
	}
	done, ok := wch.scheduleForward(p.Start, size, false)
	if !ok {
		return 0, 0, false
	}
	latest := p.End - units.TransferTime(size, rbw)
	if latest <= done {
		return 0, 0, false
	}
	return done, latest, true
}

// excessArea integrates min(size, pressure-cap) over the full kernel slots
// inside [from, to] — the eviction's benefit in byte·seconds. Only slots in
// the over-capacity bitset contribute, and they are visited in the same
// order (ascending global slot) with the same per-slot arithmetic as a full
// scan, so the float accumulation is identical. The per-run body is a
// plain loop, not a callback: a callback is free only while the compiler
// inlines it (DESIGN.md §4).
func (pl *planner) excessArea(from, to units.Time, size float64) float64 {
	cap := float64(pl.cfg.GPUCapacity)
	var area float64
	g, gEnd := pl.tl.fullSlotSpan(from, to)
	for g < gEnd {
		kStart, kLim := pl.tl.run(g, gEnd)
		g += kLim - kStart
		// Walk the over-capacity bitset word by word (ascending slot
		// order, so the float accumulation matches a full scan exactly).
		for w := kStart >> 6; w<<6 < kLim; w++ {
			word := pl.excess[w]
			if word == 0 {
				continue
			}
			base := w << 6
			if base < kStart {
				word &= ^uint64(0) << (uint(kStart) & 63)
			}
			for word != 0 {
				k := base + bits.TrailingZeros64(word)
				if k >= kLim {
					break
				}
				word &= word - 1
				excess := pl.pressure[k] - cap
				if excess > size {
					excess = size
				}
				area += excess * pl.tl.sec[k]
			}
		}
	}
	return area
}

// commit applies Algorithm 1's lines 6–17 for the selected period: pick the
// destination, book the eviction on its channel, and update pressure and
// host-occupancy state.
func (pl *planner) commit(p *vitality.Period) {
	size := p.Tensor.Size
	target, from, to, ok := pl.chooseTarget(p)
	if !ok {
		return
	}
	wch := pl.ssdWrite
	if target == uvm.InHost {
		wch = pl.hostWrite
	}
	done, ok := wch.scheduleForward(p.Start, size, true)
	if !ok {
		return
	}

	// Reduce pressure over the free window, keeping the over-capacity
	// bitset and pressure max-tree in sync.
	capBytes := float64(pl.cfg.GPUCapacity)
	g, gEnd := pl.tl.fullSlotSpan(from, to)
	for g < gEnd {
		kStart, kLim := pl.tl.run(g, gEnd)
		g += kLim - kStart
		for k := kStart; k < kLim; k++ {
			pl.pressure[k] -= float64(size)
			if pl.pressure[k]-capBytes > 0 {
				pl.excess.set(k)
			} else {
				pl.excess.clear(k)
			}
		}
		pl.presTree.update(kStart, kLim)
	}
	// Host occupancy covers the whole period.
	if target == uvm.InHost {
		for _, w := range pl.tl.wrapSplit(p.Start, p.End) {
			k0, kEnd := pl.tl.touched(w)
			for k := k0; k < kEnd; k++ {
				pl.hostUsed[k] += float64(size)
			}
			pl.hostTree.update(k0, kEnd)
		}
	}

	pl.decisions = append(pl.decisions, Decision{
		Period:        p,
		Target:        target,
		EvictBoundary: p.AfterKernel + 1,
		EvictDone:     done,
		Deadline:      p.End,
	})
}

// hostFits checks host capacity across the period's slots (line 10).
// Adding the tensor size is monotone under float64 rounding, so comparing
// against the window's maintained occupancy maximum decides exactly as the
// per-slot scan did.
func (pl *planner) hostFits(p *vitality.Period, size units.Bytes) bool {
	if !pl.cfg.UseHost || pl.cfg.HostCapacity <= 0 {
		return false
	}
	for _, w := range pl.tl.wrapSplit(p.Start, p.End) {
		k0, kEnd := pl.tl.touched(w)
		if k0 < kEnd && pl.hostTree.queryMax(k0, kEnd)+float64(size) > float64(pl.cfg.HostCapacity) {
			return false
		}
	}
	return true
}

// ---- Phase 2: smart tensor prefetching (§4.4) ----

func (pl *planner) schedulePrefetches() {
	capBytes := float64(pl.cfg.GPUCapacity)
	pl.prefetchSlots = make([]int, len(pl.decisions))
	// §4.4: traverse evicted periods in latest-safe-prefetch-time order.
	order := make([]int, len(pl.decisions))
	for i := range order {
		order[i] = i
	}
	latest := make([]units.Time, len(pl.decisions))
	for i := range pl.decisions {
		d := &pl.decisions[i]
		rch := pl.ssdRead
		if d.Target == uvm.InHost {
			rch = pl.hostRead
		}
		latest[i], _ = rch.scheduleBackward(d.Deadline, d.Period.Tensor.Size, false)
	}
	sort.SliceStable(order, func(x, y int) bool { return latest[order[x]] < latest[order[y]] })

	for _, i := range order {
		d := &pl.decisions[i]
		size := d.Period.Tensor.Size
		rch := pl.ssdRead
		if d.Target == uvm.InHost {
			rch = pl.hostRead
		}
		start, ok := rch.scheduleBackward(d.Deadline, size, true)
		if !ok {
			// Channel saturated: fall back to the analytic latest time;
			// the runtime will absorb the stall.
			start = d.Deadline - units.TransferTime(size, units.Bandwidth(rch.bw))
		}
		d.PrefetchStart = start

		// Map the start to an issue boundary (the kernel during which the
		// transfer should begin), in cyclic terms.
		bLatest := pl.tl.cyclicSlot(start)
		bEarliestLimit := pl.tl.cyclicSlot(d.EvictDone) + 1 // cannot fetch before eviction lands

		// Eager rescheduling: walk backwards while the tensor also fits.
		b := bLatest
		for b > bEarliestLimit {
			if pl.pressure[pl.tl.mod(b-1)]+float64(size) > capBytes {
				break
			}
			b--
		}
		// The tensor re-occupies memory from the issue slot to the latest
		// slot (it was counted from the latest slot onwards already).
		for g := b; g < bLatest; g++ {
			pl.pressure[pl.tl.mod(g)] += float64(size)
		}
		pl.prefetchSlots[i] = b
		d.PrefetchBoundary = pl.tl.mod(b)
	}
}

// Validate checks the plan's invariants (used by tests): evictions sit
// inside their periods and prefetch boundaries precede the next use.
func (p *Plan) Validate() error {
	n := len(p.Analysis.Graph.Kernels)
	seen := map[*vitality.Period]bool{}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if seen[d.Period] {
			return fmt.Errorf("planner: period of %s scheduled twice", d.Period.Tensor.Name)
		}
		seen[d.Period] = true
		if d.EvictBoundary != d.Period.AfterKernel+1 {
			return fmt.Errorf("planner: eviction of %s at boundary %d, period starts after kernel %d",
				d.Period.Tensor.Name, d.EvictBoundary, d.Period.AfterKernel)
		}
		if d.PrefetchBoundary < 0 || d.PrefetchBoundary > n {
			return fmt.Errorf("planner: prefetch boundary %d out of range", d.PrefetchBoundary)
		}
		if !d.Period.Wraps {
			if d.PrefetchBoundary > d.Period.NextUse {
				return fmt.Errorf("planner: prefetch of %s at boundary %d after next use %d",
					d.Period.Tensor.Name, d.PrefetchBoundary, d.Period.NextUse)
			}
		}
		if d.Target != uvm.InFlash && d.Target != uvm.InHost {
			return fmt.Errorf("planner: decision %d has target %v", i, d.Target)
		}
	}
	return nil
}
