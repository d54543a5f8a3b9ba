package gpu

import (
	"fmt"
	"sync"

	"g10sim/internal/dnn"
	"g10sim/internal/flownet"
	"g10sim/internal/planner"
	"g10sim/internal/ssd"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// Policy is the migration decision-maker plugged into the machine. The G10
// variants are almost entirely static (the instrumented program carries
// their decisions); baselines are dynamic. Policies carry per-run state, so
// every machine — every tenant of a cluster — needs its own instance.
type Policy interface {
	Name() string
	// Attach is called once before simulation begins.
	Attach(m *Machine)
	// AtBoundary runs after the program's instructions at boundary b of
	// iteration iter — dynamic policies issue prefetches here.
	AtBoundary(iter, b int)
	// OnMiss is called when kernel k needs tensor t but it is not in GPU
	// memory and no fetch is in flight. The policy issues the demand
	// migration (typically m.RequestFetch(t.ID, uvm.FaultFetch)).
	OnMiss(k int, t *dnn.Tensor)
	// MakeRoom schedules evictions to free need bytes of GPU memory.
	// pinned tensors (the current kernel's working set) must stay.
	// Returns false if it cannot free anything further right now.
	MakeRoom(need units.Bytes, pinned map[int]bool) bool
	// UsesUVM: demand misses pay the GPU page-fault latency; overflowing
	// working sets stream instead of failing.
	UsesUVM() bool
	// DirectFlash: SSD migrations bypass host software mediation
	// (G10's extended UVM, FlashNeuron's GPUDirect Storage).
	DirectFlash() bool
}

// Shared is the substrate a cluster's tenants contend on: one flash array
// behind one FTL, and one host memory pool with its DRAM bus, whose
// bandwidths are resources on the run's one flow network and clock. Run is
// a one-tenant cluster, so the one-tenant and N-tenant configurations
// execute identical code paths.
type Shared struct {
	dev  *ssd.Device
	host *uvm.MemPool

	ssdRead, ssdWrite     *flownet.Resource
	hostBusIn, hostBusOut *flownet.Resource

	// plans memoises the migration planner per distinct job (see
	// Machine.Plan): the run's own cache, or ClusterParams.Plans.
	plans *PlanCache
}

// PlanCache memoises migration plans per distinct job: one *planner.Plan
// per (analysis, effective planner configuration), the analysis keyed by
// pointer identity. The planner is deterministic and plans are read-only,
// so a shared plan is bit-identical to a private one. The zero value is
// ready to use. It is safe for concurrent use and single-flight per key:
// concurrent co-simulations sharing one cache plan each job once.
type PlanCache struct {
	mu sync.Mutex
	m  map[planKey]*planEntry
}

// planKey identifies one planning problem.
type planKey struct {
	a   *vitality.Analysis
	cfg planner.Config
}

type planEntry struct {
	once sync.Once
	p    *planner.Plan
}

// plan returns the cached plan for (a, pcfg), running the planner on the
// first request for that key.
func (c *PlanCache) plan(a *vitality.Analysis, pcfg planner.Config) *planner.Plan {
	k := planKey{a: a, cfg: pcfg}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = make(map[planKey]*planEntry)
		}
		e = &planEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.p = planner.New(a, pcfg) })
	return e.p
}

// NewShared builds the shared substrate from cfg's cross-tenant fields
// (SSD, HostCapacity, HostDRAMBandwidth) on net. Resource-creation order is
// the caller's: RunCluster registers tenant 0's PCIe links first.
func NewShared(net *flownet.Network, cfg Config) (*Shared, error) {
	cfg = cfg.withDefaults()
	dev, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	sh := &Shared{dev: dev, host: uvm.NewMemPool(cfg.HostCapacity), plans: new(PlanCache)}
	sh.ssdRead = net.AddResource("ssd-read", dev.EffectiveReadBandwidth())
	sh.ssdWrite = net.AddResource("ssd-write", dev.EffectiveWriteBandwidth())
	sh.hostBusIn = net.AddResource("hostmem-in", cfg.HostDRAMBandwidth)
	sh.hostBusOut = net.AddResource("hostmem-out", cfg.HostDRAMBandwidth)
	return sh, nil
}

// tensorState tracks one tensor's placement and any in-flight migration.
// The bools sit together at the end so the struct stays 112 bytes.
type tensorState struct {
	t   *dnn.Tensor
	loc uvm.Location // Unmapped = not allocated
	// pte is the tensor's page-table entry: the translation of every page
	// of its span. remap keeps it in step with loc.
	pte     uvm.PTE
	va      uint64
	pend    *uvm.Request // queued or flying request, nil if none
	fly     *flownet.Flow
	mig     *migration
	flash   ssd.LogicalRange
	lastUse units.Time
	// lruPrev/lruNext link the machine's resident-LRU index (tensor ids,
	// -1 at the ends). The index key is (lastUse, id), so lastUse must only
	// change while the tensor is untracked.
	lruPrev, lruNext int
	// dying marks a tensor freed while its migration was in flight; the
	// destination space is released on completion. inLRU marks membership
	// in the resident-LRU index.
	dying, hasRng, inLRU bool
}

// Machine is one simulated GPU system: a tenant of a Shared substrate. Its
// PCIe link, migration metadata queues, page table (the tensor states'
// PTEs), and TLB are private; the clock, the flash array (seen through a
// per-tenant attribution view), and host memory are the substrate's.
type Machine struct {
	cfg    Config
	a      *vitality.Analysis
	g      *dnn.Graph
	pol    Policy
	sh     *Shared
	net    *flownet.Network // the run's clock and flows
	dev    *ssd.Tenant      // attribution view on sh.dev
	host   *uvm.MemPool     // == sh.host
	tlb    *uvm.TLB
	queues uvm.Queues
	arb    uvm.Arbiter

	pcieIn, pcieOut *flownet.Resource

	states  []tensorState
	gpuUsed units.Bytes
	ledger  traffic

	// inflight counts this machine's active or scheduled flows on the
	// shared network; the step machine waits on the clock only while it is
	// non-zero (otherwise nothing will ever unblock it).
	inflight int

	// idx is the machine's tenant slot in its cluster (0 for a stand-alone
	// machine); every flow it starts is tagged with it so the event-driven
	// scheduler wakes exactly the tenants a completion batch affects.
	idx int

	// hostRejects counts denied host-pool reservations and lastHostReject
	// the size of the most recent one: the runner subscribes to the pool's
	// waiter queue when a blocked wait follows a denial, so a grant wakes
	// this tenant specifically instead of every tenant re-polling the pool.
	hostRejects    int64
	lastHostReject units.Bytes

	// Derived indexes, maintained incrementally at every state transition
	// (track/untrack) instead of recomputed by O(tensors) scans:
	//   pendFetchBytes   — sum of sizes with a queued (not yet flying) fetch
	//   evictPendBytes   — sum of sizes with a pending eviction
	//   lruHead/lruTail  — doubly-linked list (by tensor id) of GPU-resident
	//                      tensors with no pending migration, ordered by
	//                      (lastUse, id), least recent first
	pendFetchBytes units.Bytes
	evictPendBytes units.Bytes
	lruHead        int
	lruTail        int
	lruLen         int
	lruScratch     []int

	// lat is the cumulative migration-lateness ledger (see lateness.go);
	// the runner snapshots per-iteration deltas for adaptive policies.
	lat LatenessSignal

	// migPool recycles migration structs: a migration returns to the pool
	// when it commits, cancels, or unwinds, so steady-state chunk trains
	// allocate nothing. routes holds the four possible route slices (fixed
	// once the policy's DirectFlash choice is known at bind time); every
	// migration aliases one of them read-only.
	migPool []*migration
	reqPool []*uvm.Request
	routes  struct {
		evictFlash, evictHost, fetchFlash, fetchHost []*flownet.Resource
	}

	// Counters (cumulative; the runner snapshots around the measured
	// iteration).
	faults        int64
	faultedBytes  units.Bytes
	overflowKerns int
	overflowBytes units.Bytes

	failed     bool
	failReason string

	// check (set from ClusterParams.Check) makes every remap assert that
	// the TLB holds no translation for the remapped tensor; checkErr keeps
	// the first violation until the next check reports it.
	check    bool
	checkErr error
}

// migration is one in-progress tensor transfer. Transfers move in chunks
// of Config.MigrationChunk (the arbiter's transfer sets, Figure 10): each
// chunk is one flow; evictions release GPU memory chunk by chunk and
// fetches claim it chunk by chunk, the way page-group migrations do.
type migration struct {
	owner *Machine // the tenant whose transfer this is
	id    int
	kind  uvm.RequestKind
	src   uvm.Location
	dst   uvm.Location
	// size is the true tensor size; chunk the bytes of the flow currently
	// in flight; moved the bytes already transferred. inflate models
	// reduced effective throughput for on-demand or host-mediated paths.
	size    units.Bytes
	chunk   units.Bytes
	moved   units.Bytes
	inflate float64
	// latency still to charge before the next chunk (first chunk only).
	latency units.Duration
	// route is the resources this migration's flows traverse, computed once
	// rather than per chunk.
	route []*flownet.Resource
}

// newTenantShell creates the machine struct, its tensor states, and its
// private PCIe resources — everything except the shared substrate binding.
func newTenantShell(a *vitality.Analysis, cfg Config, net *flownet.Network, tag string) *Machine {
	m := &Machine{
		cfg: cfg,
		a:   a,
		g:   a.Graph,
		net: net,
		tlb: uvm.MustNewTLB(64, 8, cfg.TranslationGranularity),
	}
	prefix := ""
	if tag != "" {
		prefix = tag + "/"
	}
	m.pcieIn = net.AddResource(prefix+"pcie-in", cfg.PCIeBandwidth)
	m.pcieOut = net.AddResource(prefix+"pcie-out", cfg.PCIeBandwidth)

	m.lruHead, m.lruTail = -1, -1
	m.states = make([]tensorState, len(m.g.Tensors))
	var va uint64 = 1 << 21 // leave page zero unmapped
	for id, t := range m.g.Tensors {
		m.states[id] = tensorState{t: t, loc: uvm.Unmapped, va: va, lruPrev: -1, lruNext: -1}
		va += uint64(m.pagesOf(t)) * uint64(cfg.TranslationGranularity)
	}
	return m
}

// bind attaches the machine to its substrate and policy.
func (m *Machine) bind(sh *Shared, pol Policy) {
	m.sh = sh
	m.dev = sh.dev.Tenant()
	m.host = sh.host
	m.pol = pol
	if pol.DirectFlash() {
		m.routes.evictFlash = []*flownet.Resource{m.pcieOut, sh.ssdWrite}
		m.routes.fetchFlash = []*flownet.Resource{sh.ssdRead, m.pcieIn}
	} else {
		m.routes.evictFlash = []*flownet.Resource{m.pcieOut, sh.ssdWrite, sh.hostBusOut}
		m.routes.fetchFlash = []*flownet.Resource{sh.ssdRead, m.pcieIn, sh.hostBusIn}
	}
	m.routes.evictHost = []*flownet.Resource{m.pcieOut, sh.hostBusOut}
	m.routes.fetchHost = []*flownet.Resource{sh.hostBusIn, m.pcieIn}
	pol.Attach(m)
}

func (m *Machine) pagesOf(t *dnn.Tensor) int64 {
	return units.PagesFor(t.Size, m.cfg.TranslationGranularity)
}

// remap sets st's PTE to the translation st.loc implies. It is the one
// place a translation changes, so it owns the coherence rule: a tensor
// that had a translation before gets its TLB entry shot down (touch only
// ever caches st.va). A checked run then asserts that the TLB holds
// nothing for the tensor and keeps the first violation for the next check
// to report.
func (m *Machine) remap(st *tensorState) {
	had := st.pte.Loc != uvm.Unmapped
	st.pte = st.translation()
	if had {
		m.tlb.Invalidate(st.va)
	}
	if m.check && m.checkErr == nil {
		if pte, ok := m.tlb.Peek(st.va); ok {
			m.checkErr = fmt.Errorf("tenant %d: TLB still caches remapped %s as %+v", m.idx, st.t.Name, pte)
		}
	}
}

// translation is the PTE st.loc implies: GPU and host pages carry the
// tensor's frame (va>>21), flash pages the first page of its flash range,
// and an unmapped tensor has the zero PTE.
func (st *tensorState) translation() uvm.PTE {
	switch st.loc {
	case uvm.Unmapped:
		return uvm.PTE{}
	case uvm.InFlash:
		return uvm.PTE{Loc: uvm.InFlash, Addr: uint64(st.flash.Start)}
	default:
		return uvm.PTE{Loc: st.loc, Addr: st.va >> 21}
	}
}

// reserveHost claims host-pool capacity, recording denials so the runner
// can subscribe this tenant to the pool's grant queue (an explicit wakeup
// reason instead of re-polling).
func (m *Machine) reserveHost(n units.Bytes) bool {
	if m.host.ReserveFor(m.idx, n) {
		return true
	}
	m.hostRejects++
	m.lastHostReject = n
	return false
}

// ---- Derived-index maintenance ----

// untrack removes st's contributions from the derived indexes. Every
// mutation of st.loc, st.pend, st.fly, or st.lastUse must be bracketed by
// untrack/track (never nested).
func (m *Machine) untrack(st *tensorState) {
	if st.pend != nil {
		if st.pend.Kind == uvm.PreEvict {
			m.evictPendBytes -= st.t.Size
		} else if st.fly == nil {
			m.pendFetchBytes -= st.t.Size
		}
	}
	if st.inLRU {
		m.lruRemove(st)
		st.inLRU = false
	}
}

// track re-adds st's contributions after a mutation.
func (m *Machine) track(st *tensorState) {
	if st.pend != nil {
		if st.pend.Kind == uvm.PreEvict {
			m.evictPendBytes += st.t.Size
		} else if st.fly == nil {
			m.pendFetchBytes += st.t.Size
		}
	}
	if st.loc == uvm.InGPU && st.pend == nil {
		m.lruInsert(st)
		st.inLRU = true
	}
}

// lruBefore reports whether a sorts before b in the (lastUse, id) order.
func (m *Machine) lruBefore(a, b *tensorState) bool {
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	return a.t.ID < b.t.ID
}

// lruInsert links st into the recency list. The simulation clock is
// monotone, so insertions land at (or within a few same-timestamp entries
// of) the tail.
func (m *Machine) lruInsert(st *tensorState) {
	id := st.t.ID
	after := m.lruTail // walk back to the first entry sorting before st
	for after >= 0 && m.lruBefore(st, &m.states[after]) {
		after = m.states[after].lruPrev
	}
	if after < 0 {
		st.lruPrev, st.lruNext = -1, m.lruHead
		if m.lruHead >= 0 {
			m.states[m.lruHead].lruPrev = id
		} else {
			m.lruTail = id
		}
		m.lruHead = id
	} else {
		o := &m.states[after]
		st.lruPrev, st.lruNext = after, o.lruNext
		if o.lruNext >= 0 {
			m.states[o.lruNext].lruPrev = id
		} else {
			m.lruTail = id
		}
		o.lruNext = id
	}
	m.lruLen++
}

func (m *Machine) lruRemove(st *tensorState) {
	if st.lruPrev >= 0 {
		m.states[st.lruPrev].lruNext = st.lruNext
	} else {
		m.lruHead = st.lruNext
	}
	if st.lruNext >= 0 {
		m.states[st.lruNext].lruPrev = st.lruPrev
	} else {
		m.lruTail = st.lruPrev
	}
	m.lruLen--
}

// clearPend cancels st's queued request, keeping the indexes consistent.
func (m *Machine) clearPend(st *tensorState) {
	m.untrack(st)
	st.pend = nil
	m.track(st)
}

// ---- Introspection for policies ----

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Graph returns the workload graph.
func (m *Machine) Graph() *dnn.Graph { return m.g }

// Analysis returns the vitality analysis the run was set up with.
func (m *Machine) Analysis() *vitality.Analysis { return m.a }

// Plan returns the migration plan for the machine's analysis under pcfg
// from the substrate's PlanCache, so every tenant of a co-simulation
// running the same job on the same effective configuration shares one
// *planner.Plan — the plan is a compile-time artefact of the job, not of
// the tenant. The cache is the run's own unless ClusterParams.Plans hands
// in one that outlives it; then the plan is shared across runs too, and
// the cache's lock covers concurrent runs. Shared plans and their programs
// are read-only (Program.Retime copies).
func (m *Machine) Plan(pcfg planner.Config) *planner.Plan {
	return m.sh.plans.plan(m.a, pcfg)
}

// Now returns the simulation clock.
func (m *Machine) Now() units.Time { return m.net.Now() }

// Loc reports where tensor id currently lives.
func (m *Machine) Loc(id int) uvm.Location { return m.states[id].loc }

// InFlight reports whether tensor id has a queued or flying migration.
func (m *Machine) InFlight(id int) bool { return m.states[id].pend != nil }

// GPUFree reports unreserved GPU memory.
func (m *Machine) GPUFree() units.Bytes { return m.cfg.GPUCapacity - m.gpuUsed }

// HostFree reports unreserved host memory (shared across a cluster's
// tenants).
func (m *Machine) HostFree() units.Bytes { return m.host.Free() }

// ResidentLRU lists GPU-resident tensors with no in-flight migration,
// least recently used first. The list is maintained incrementally as
// tensors move. The returned slice is scratch owned by the Machine — the
// caller may reorder it freely but must not retain it past the next call
// (policies consume it inside one MakeRoom decision).
func (m *Machine) ResidentLRU() []int {
	out := m.lruScratch[:0]
	for id := m.lruHead; id >= 0; id = m.states[id].lruNext {
		out = append(out, id)
	}
	m.lruScratch = out
	return out
}

// ---- Memory operations ----

// alloc places an unallocated tensor into GPU memory. Reports false when
// there is no room.
func (m *Machine) alloc(id int) bool {
	st := &m.states[id]
	if st.loc != uvm.Unmapped {
		return true
	}
	if m.gpuUsed+st.t.Size > m.cfg.GPUCapacity {
		return false
	}
	m.gpuUsed += st.t.Size
	m.untrack(st)
	m.place(st, uvm.InGPU)
	return true
}

// seed places a tensor at simulation start: GPU if it fits, else where
// spill puts it. Used for the initial residency of global tensors.
func (m *Machine) seed(id int) error {
	if m.alloc(id) {
		return nil
	}
	st := &m.states[id]
	if _, err := m.spill(st); err != nil {
		return fmt.Errorf("gpu: seeding %s: %w", st.t.Name, err)
	}
	return nil
}

// spill places an unallocated tensor outside GPU memory: in the host pool
// if it grants, else in a newly written flash range. It reports where.
func (m *Machine) spill(st *tensorState) (uvm.Location, error) {
	loc := uvm.InHost
	if !m.reserveHost(st.t.Size) {
		rng, err := m.dev.Alloc(m.dev.PagesFor(st.t.Size))
		if err != nil {
			return uvm.Unmapped, err
		}
		st.flash, st.hasRng = rng, true
		if _, err := m.dev.Write(rng); err != nil {
			return uvm.Unmapped, err
		}
		m.refreshSSDWrite()
		loc = uvm.InFlash
	}
	m.untrack(st)
	m.place(st, loc)
	return loc, nil
}

// place is the tail of every location change, run with st untracked: it
// moves st to loc, stamps an arrival in GPU memory as a use, re-tracks st
// and remaps its translation. With unmap it is the only writer of st.loc.
func (m *Machine) place(st *tensorState, loc uvm.Location) {
	st.loc = loc
	if loc == uvm.InGPU {
		st.lastUse = m.Now()
	}
	m.track(st)
	m.remap(st)
}

// unmap ends a tensor's placement: its flash range frees, it becomes
// unallocated with no translation, and it is no longer dying.
func (m *Machine) unmap(st *tensorState) {
	if st.hasRng {
		m.dev.Free(st.flash)
		st.hasRng = false
	}
	st.loc = uvm.Unmapped
	m.remap(st)
	st.dying = false
}

// free releases a tensor wherever it lives. In-flight migrations mark the
// tensor dying and release on completion.
func (m *Machine) free(id int) {
	st := &m.states[id]
	if st.fly != nil {
		st.dying = true
		return
	}
	m.clearPend(st) // cancel anything queued
	m.release(st)
}

func (m *Machine) release(st *tensorState) {
	m.untrack(st)
	if mig := st.mig; mig != nil {
		// A tensor freed mid-migration: return whatever the chunks hold.
		if mig.kind == uvm.PreEvict {
			m.gpuUsed -= mig.size - mig.moved // chunks still in GPU
			if mig.dst == uvm.InHost {
				m.host.ReleaseFor(m.idx, mig.size) // reservation made at start
			}
		} else {
			m.gpuUsed -= mig.moved + mig.chunk // chunks landed + reserved
			if mig.src == uvm.InHost {
				m.host.ReleaseFor(m.idx, mig.size)
			}
		}
		st.mig = nil
		st.fly = nil
		st.pend = nil
		m.putMigration(mig)
	} else {
		switch st.loc {
		case uvm.InGPU:
			m.gpuUsed -= st.t.Size
		case uvm.InHost:
			m.host.ReleaseFor(m.idx, st.t.Size)
		}
	}
	m.unmap(st)
	m.track(st)
}

// RequestEvict queues a migration of a GPU-resident tensor to dst
// (host or flash). Returns false when the tensor is not evictable now.
func (m *Machine) RequestEvict(id int, dst uvm.Location) bool {
	st := &m.states[id]
	if st.loc != uvm.InGPU || st.pend != nil {
		return false
	}
	if dst != uvm.InHost && dst != uvm.InFlash {
		return false
	}
	r := m.getRequest()
	*r = uvm.Request{Kind: uvm.PreEvict, TensorID: id, Bytes: st.t.Size, Src: uvm.InGPU, Dst: dst}
	m.untrack(st)
	st.pend = r
	m.track(st)
	m.queues.Push(r)
	m.dispatch()
	return true
}

// RequestFetch queues a migration of an evicted tensor back to the GPU.
// kind selects demand (FaultFetch) or planned (Prefetch) semantics.
func (m *Machine) RequestFetch(id int, kind uvm.RequestKind) bool {
	return m.requestFetch(id, kind, false)
}

// RequestScheduledFetch queues a demand miss that the migration handler
// services as a planned transfer: it jumps to the fault queue (the current
// kernel is stalled on it) but runs at scheduled-transfer cost — how G10's
// instrumented runtime handles a tensor whose prefetch is late (§4.6).
func (m *Machine) RequestScheduledFetch(id int) bool {
	return m.requestFetch(id, uvm.FaultFetch, true)
}

func (m *Machine) requestFetch(id int, kind uvm.RequestKind, scheduled bool) bool {
	st := &m.states[id]
	if st.pend != nil {
		if st.pend.Kind == uvm.PreEvict && st.fly == nil {
			// Still queued, not started: cancel the eviction instead.
			m.clearPend(st)
			return true
		}
		if kind == uvm.FaultFetch && st.pend.Kind == uvm.Prefetch && st.fly == nil && st.mig == nil {
			// Upgrade a queued (not yet started) prefetch to fault
			// priority: the kernel is now blocked on it — a planned
			// migration that missed its deadline.
			m.clearPend(st)
		} else {
			return false
		}
	}
	if st.loc != uvm.InHost && st.loc != uvm.InFlash {
		return false
	}
	r := m.getRequest()
	*r = uvm.Request{Kind: kind, TensorID: id, Bytes: st.t.Size, Src: st.loc, Dst: uvm.InGPU, Scheduled: scheduled}
	m.untrack(st)
	st.pend = r
	m.track(st)
	m.queues.Push(r)
	m.dispatch()
	return true
}

// dispatch drains the migration metadata queues through the arbiter
// (Figure 10 steps 2–4): transfer sets are formed fault-first; requests
// that cannot start yet (a fetch with no free GPU memory) are requeued.
func (m *Machine) dispatch() {
	if m.failed {
		return // aborted: start nothing more; the runner finishes at its next boundary
	}
	for {
		set := m.arb.NextTransferSet(&m.queues)
		if len(set) == 0 {
			return
		}
		progress := false
		for _, r := range set {
			st := &m.states[r.TensorID]
			if st.pend != r {
				m.putRequest(r) // stale: cancelled or superseded, and now unreferenced
				continue
			}
			if m.startFlow(r, st) {
				progress = true
			} else {
				m.queues.Push(r)
			}
		}
		if !progress {
			return
		}
	}
}

// startFlow launches (or resumes) a migration. Returns false if the
// request must wait: a fetch with no free GPU memory for its next chunk.
// The first call decides the final destination, allocates flash space, and
// computes latency and throughput inflation; subsequent calls continue the
// chunk chain.
func (m *Machine) startFlow(r *uvm.Request, st *tensorState) bool {
	if st.mig == nil {
		mig, ok := m.beginMigration(r, st)
		if !ok {
			return false
		}
		st.mig = mig
	}
	return m.startChunk(st, nil)
}

// getMigration pops a pooled migration struct (or allocates the pool's
// first); putMigration returns one once nothing references it.
func (m *Machine) getMigration() *migration {
	if n := len(m.migPool); n > 0 {
		mig := m.migPool[n-1]
		m.migPool = m.migPool[:n-1]
		*mig = migration{}
		return mig
	}
	return &migration{}
}

func (m *Machine) putMigration(mig *migration) {
	m.migPool = append(m.migPool, mig)
}

// getRequest pops a pooled metadata-queue request. putRequest returns one —
// only at points where it provably sits in no queue (a committed migration's
// request, or a superseded request the dispatcher just popped), so a pooled
// request is never aliased by a live queue entry.
func (m *Machine) getRequest() *uvm.Request {
	if n := len(m.reqPool); n > 0 {
		r := m.reqPool[n-1]
		m.reqPool = m.reqPool[:n-1]
		*r = uvm.Request{}
		return r
	}
	return &uvm.Request{}
}

func (m *Machine) putRequest(r *uvm.Request) {
	m.reqPool = append(m.reqPool, r)
}

// beginMigration performs the once-per-tensor setup of a migration.
func (m *Machine) beginMigration(r *uvm.Request, st *tensorState) (*migration, bool) {
	size := st.t.Size
	mig := m.getMigration()
	mig.owner, mig.id, mig.kind, mig.src, mig.dst = m, r.TensorID, r.Kind, r.Src, r.Dst
	mig.size, mig.inflate, mig.latency = size, 1, m.cfg.DMALatency

	switch r.Kind {
	case uvm.PreEvict:
		if mig.dst == uvm.InHost && !m.reserveHost(size) {
			mig.dst = uvm.InFlash // host full: fall back to the SSD
		}
		if mig.dst == uvm.InFlash {
			if !st.hasRng {
				rng, err := m.dev.Alloc(m.dev.PagesFor(size))
				if err != nil {
					m.failf("ssd alloc: %v", err)
					m.putMigration(mig)
					return nil, false
				}
				st.flash = rng
				st.hasRng = true
			}
			mig.latency += m.cfg.SSD.WriteLatency
			if !m.pol.DirectFlash() {
				mig.latency += m.cfg.HostMediationOverhead
				mig.inflate = 1 / m.cfg.HostMediationEfficiency
			}
		}
		r.Dst = mig.dst

	case uvm.Prefetch, uvm.FaultFetch:
		if mig.src == uvm.InFlash {
			mig.latency += m.cfg.SSD.ReadLatency
			if !m.pol.DirectFlash() {
				mig.latency += m.cfg.HostMediationOverhead
				mig.inflate = 1 / m.cfg.HostMediationEfficiency
			}
			if err := m.dev.Read(st.flash); err != nil {
				m.failf("ssd read: %v", err)
				m.putMigration(mig)
				return nil, false
			}
		}
		if r.Kind == uvm.FaultFetch && !r.Scheduled {
			// Demand misses run at on-demand efficiency. With the
			// extended UVM (or a GPUDirect library) the miss is serviced
			// directly; through the host UVM driver it pays the full
			// fault round trip and a lower streaming efficiency.
			if m.pol.DirectFlash() && mig.src == uvm.InFlash {
				mig.latency += m.cfg.DirectFaultLatency
				mig.inflate = 1 / m.cfg.DirectFaultEfficiency
			} else {
				if m.pol.UsesUVM() {
					mig.latency += m.cfg.FaultLatency
				}
				mig.inflate = 1 / m.cfg.FaultEfficiency
			}
			m.faults++
			m.faultedBytes += size
		}
	default:
		m.putMigration(mig)
		return nil, false
	}
	mig.route = m.route(mig)
	return mig, true
}

// route returns the resources a migration's flows traverse: this tenant's
// PCIe link plus the substrate's shared SSD channels and host bus. The four
// slices are built once at bind time and shared read-only.
func (m *Machine) route(mig *migration) []*flownet.Resource {
	switch {
	case mig.kind == uvm.PreEvict && mig.dst == uvm.InFlash:
		return m.routes.evictFlash
	case mig.kind == uvm.PreEvict:
		return m.routes.evictHost
	case mig.src == uvm.InFlash:
		return m.routes.fetchFlash
	default:
		return m.routes.fetchHost
	}
}

// nextChunk sizes and (for fetches) claims GPU memory for the migration's
// next chunk. Reports false when a fetch must wait for space — the memory
// claim is the semantic boundary that forces the slow path: a conveyor may
// only keep rolling while each chunk's destination memory is granted.
func (m *Machine) nextChunk(mig *migration) (units.Bytes, bool) {
	chunk := m.cfg.MigrationChunk
	if rem := mig.size - mig.moved; chunk > rem {
		chunk = rem
	}
	if mig.kind != uvm.PreEvict {
		if m.gpuUsed+chunk > m.cfg.GPUCapacity {
			return 0, false // wait for space
		}
		m.gpuUsed += chunk
	}
	return chunk, true
}

// startChunk launches the next chunk of a migration. prev is the chunk flow
// that just finished, nil for the first chunk or a resumed one. With a
// predecessor and no setup latency owed, the chunk succeeds it in place on
// the same route (the conveyor); otherwise it starts as a fresh flow after
// the latency, which only the first chunk pays. Fetch chunks claim GPU
// memory up front and return false (leaving the request queued) when none
// is free.
func (m *Machine) startChunk(st *tensorState, prev *flownet.Flow) bool {
	mig := st.mig
	chunk, ok := m.nextChunk(mig)
	if !ok {
		return false
	}
	mig.chunk = chunk
	flowBytes := units.Bytes(float64(chunk) * mig.inflate)
	m.untrack(st)
	if prev != nil && mig.latency == 0 {
		st.fly = m.net.Succeed(prev, flowBytes)
	} else {
		st.fly = m.net.StartAt(st.t.Name, flowBytes, m.Now()+mig.latency, mig, mig.route...)
		st.fly.Owner = m.idx
		mig.latency = 0
	}
	m.inflight++
	m.track(st)
	return true
}

// refreshSSDWrite re-derives the shared ssd-write channel capacity after a
// device write: GC triggered by any tenant degrades the array's sustained
// write bandwidth for every tenant. Call after every dev.Write site.
func (m *Machine) refreshSSDWrite() {
	m.net.SetCapacity(m.sh.ssdWrite, m.dev.EffectiveWriteBandwidth())
}

// failf records the machine's first failure. Only the first reason is kept,
// so later ones are never formatted: a tenant in a failure storm hits the
// ssd failure sites on every migration attempt.
func (m *Machine) failf(format string, args ...any) {
	if !m.failed {
		m.failed = true
		m.failReason = fmt.Sprintf(format, args...)
	}
}

// deliver hands a completed flow back to the tenant that started it: a
// migration to its machine, a KV swap to its inference request.
func deliver(f *flownet.Flow) {
	switch d := f.Data.(type) {
	case *migration:
		d.owner.complete(d, f)
	case *kvTransfer:
		d.q.kvLanded(d)
	case *ckptOp:
		d.r.ckptLanded(d)
	}
}

// complete advances mig when f, one of its chunk flows, finishes:
// intermediate chunks release (evict) GPU memory and continue the chain;
// the final chunk commits the location change, device write, page-table
// update and TLB shootdown.
func (m *Machine) complete(mig *migration, f *flownet.Flow) {
	m.inflight--
	st := &m.states[mig.id]
	if st.fly != f || st.mig != mig {
		return // superseded (freed tensor)
	}
	m.untrack(st)
	st.fly = nil
	m.track(st)
	m.noteChunkDone(mig, f)
	mig.moved += mig.chunk
	if mig.kind == uvm.PreEvict {
		m.gpuUsed -= mig.chunk
		if mig.dst == uvm.InFlash {
			m.ledger.ssdOut += mig.chunk
		} else {
			m.ledger.hostOut += mig.chunk
		}
	} else {
		if mig.src == uvm.InFlash {
			m.ledger.ssdIn += mig.chunk
		} else {
			m.ledger.hostIn += mig.chunk
		}
	}
	mig.chunk = 0

	if st.dying {
		// Freed mid-migration: unwind partial state and stop the chain.
		m.release(st)
		return
	}
	if mig.moved < mig.size {
		// Continue the chain. A blocked fetch chunk goes back to its
		// metadata queue and resumes when memory frees.
		if !m.startChunk(st, f) {
			m.queues.Push(st.pend)
		}
		return
	}

	// Final chunk: commit. A failed flash write still commits the
	// location but leaves a dying tensor to the failed run.
	m.untrack(st)
	req := st.pend // committed: provably in no metadata queue
	st.mig = nil
	st.pend = nil
	if req != nil {
		m.putRequest(req)
	}
	loc, wrote := uvm.InGPU, true
	switch mig.kind {
	case uvm.PreEvict:
		loc = mig.dst
		if loc == uvm.InFlash {
			if _, err := m.dev.Write(st.flash); err != nil {
				m.failf("ssd write: %v", err)
				wrote = false
			} else {
				m.refreshSSDWrite()
			}
		}
	case uvm.Prefetch, uvm.FaultFetch:
		if mig.src == uvm.InHost {
			m.host.ReleaseFor(m.idx, mig.size)
		}
	}
	m.place(st, loc)
	m.putMigration(mig)
	if wrote && st.dying {
		m.release(st)
	}
}

// cancelStalledFetches rolls back partially completed fetches that are
// blocked on memory for tensors outside the pinned set, releasing the GPU
// bytes their completed chunks hold. Copies are non-destructive, so the
// source copy is still intact; the queued request restarts the migration
// later. Returns the bytes released.
func (m *Machine) cancelStalledFetches(pinned map[int]bool) units.Bytes {
	var freed units.Bytes
	for id := range m.states {
		st := &m.states[id]
		mig := st.mig
		if mig == nil || mig.kind == uvm.PreEvict || st.fly != nil || pinned[id] {
			continue
		}
		// Blocked mid-fetch: release landed chunks; the tensor is still
		// whole at its source. Drop the request too, so the retry does
		// not immediately reclaim the freed memory ahead of the blocked
		// kernel's own fetches (the policy re-issues it later).
		m.gpuUsed -= mig.moved
		freed += mig.moved
		m.untrack(st)
		st.mig = nil
		st.pend = nil
		m.track(st)
		m.putMigration(mig)
	}
	return freed
}

// touch records a use for LRU ordering and models the translation lookup.
func (m *Machine) touch(id int) {
	st := &m.states[id]
	m.untrack(st)
	st.lastUse = m.Now()
	m.track(st)
	if _, hit := m.tlb.Lookup(st.va); !hit && st.pte.Loc != uvm.Unmapped {
		m.tlb.Insert(st.va, st.pte)
	}
}
