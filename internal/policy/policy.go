// Package policy implements the migration policies the paper evaluates
// (§7.1): the Ideal upper bound, Base UVM's on-demand fault-driven paging,
// DeepUM+'s correlation-prefetching UVM with SSD spill, FlashNeuron's
// direct GPU–SSD offload of intermediate tensors, and the three G10
// variants (G10-GDS, G10-Host, full G10) driven by the smart migration
// planner.
package policy

import (
	"sort"

	"g10sim/internal/dnn"
	"g10sim/internal/gpu"
	"g10sim/internal/planner"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// reactive is the shared machinery of fault-driven UVM policies: demand
// fetches on miss and LRU eviction (host first, SSD when the host is full).
type reactive struct {
	m           *gpu.Machine
	name        string
	direct      bool
	ssdOnly     bool // evict only to flash (GDS-style systems)
	boundary    int
	avoidWindow int // kernels ahead whose tensors LRU eviction avoids
}

func (p *reactive) Name() string          { return p.name }
func (p *reactive) Attach(m *gpu.Machine) { p.m = m }
func (p *reactive) UsesUVM() bool         { return true }
func (p *reactive) DirectFlash() bool     { return p.direct }

func (p *reactive) AtBoundary(iter, b int) { p.boundary = b }

func (p *reactive) OnMiss(k int, t *dnn.Tensor) {
	p.m.RequestFetch(t.ID, uvm.FaultFetch)
}

// MakeRoom evicts least-recently-used tensors until need bytes are on
// their way out, skipping the pinned working set and (with avoidWindow > 0)
// tensors needed by upcoming kernels.
func (p *reactive) MakeRoom(need units.Bytes, pinned map[int]bool) bool {
	avoid := p.soonNeeded()
	var freed units.Bytes
	for _, id := range p.m.ResidentLRU() {
		if freed >= need {
			break
		}
		if pinned[id] || avoid[id] {
			continue
		}
		t := p.m.Graph().Tensors[id]
		dst := uvm.InHost
		if p.ssdOnly || p.m.HostFree() < t.Size {
			dst = uvm.InFlash
		}
		if p.m.RequestEvict(id, dst) {
			freed += t.Size
		}
	}
	return freed > 0
}

func (p *reactive) soonNeeded() map[int]bool {
	if p.avoidWindow <= 0 {
		return nil
	}
	g := p.m.Graph()
	out := make(map[int]bool)
	for j := p.boundary; j < p.boundary+p.avoidWindow && j < len(g.Kernels); j++ {
		for _, t := range g.Kernels[j].Tensors() {
			out[t.ID] = true
		}
	}
	return out
}

// BaseUVM is the paper's "Base UVM": a GPU-CPU-SSD unified memory with
// only on-demand page migrations via page faults and LRU eviction.
func BaseUVM() gpu.Policy { return &reactive{name: "Base UVM"} }

// Ideal is the infinite-GPU-memory upper bound. Run it with a capacity
// override (IdealConfig); no migrations ever trigger.
func Ideal() gpu.Policy { return &reactive{name: "Ideal"} }

// IdealConfig returns cfg with effectively infinite GPU memory.
func IdealConfig(cfg gpu.Config) gpu.Config {
	cfg.GPUCapacity = 1 << 60
	return cfg
}

// deepUM adds DeepUM+'s correlation prefetcher on top of reactive UVM: in
// steady state the correlation tables converge to "prefetch what the next
// kernels touch", modeled as a fixed lookahead window. Eviction avoids
// pages the prefetcher knows are needed soon; when host memory fills, it
// spills to the SSD (the paper's "+" extension).
type deepUM struct {
	reactive
	lookahead int
}

// DeepUMPlus builds the DeepUM+ baseline with the given kernel lookahead
// (0 picks the default of 4).
func DeepUMPlus(lookahead int) gpu.Policy {
	if lookahead <= 0 {
		lookahead = 4
	}
	return &deepUM{
		reactive:  reactive{name: "DeepUM+", avoidWindow: lookahead + 1},
		lookahead: lookahead,
	}
}

func (p *deepUM) AtBoundary(iter, b int) {
	p.boundary = b
	g := p.m.Graph()
	for j := b; j < b+p.lookahead && j < len(g.Kernels); j++ {
		for _, t := range g.Kernels[j].Tensors() {
			loc := p.m.Loc(t.ID)
			if (loc == uvm.InHost || loc == uvm.InFlash) && !p.m.InFlight(t.ID) {
				p.m.RequestFetch(t.ID, uvm.Prefetch)
			}
		}
	}
}

// G10 wraps a planner output as a runtime policy. The planner handles the
// common case; the runtime side adds the dynamic fallbacks the migration
// handler provides (§4.6): when the plan's estimate diverges from reality,
// the policy evicts the resident tensor whose next use is farthest away
// (the compiler gives G10 exact lifetime knowledge, so its fallback is
// Belady-like rather than LRU) and keeps a small free low-water mark so
// allocations never serialize behind an eviction.
type g10 struct {
	reactive
	plannerCfg planner.Config
	plan       *planner.Plan
	infos      []vitality.TensorInfo // the analysis' per-tensor uses, shared read-only
}

// G10Full is the complete system: smart migrations to SSD and host plus
// the extended UVM (direct flash access, no host software mediation).
func G10Full(pcfg planner.Config) gpu.Policy {
	pcfg.UseSSD = true
	pcfg.UseHost = true
	return &g10{reactive: reactive{name: "G10", direct: true}, plannerCfg: pcfg}
}

// G10GDS restricts migrations to GPU↔SSD (no host destination), still via
// the host-mediated GPUDirect path.
func G10GDS(pcfg planner.Config) gpu.Policy {
	pcfg.UseSSD = true
	pcfg.UseHost = false
	return &g10{reactive: reactive{name: "G10-GDS", ssdOnly: true}, plannerCfg: pcfg}
}

// G10Host enables host and SSD destinations but without the UVM extension:
// flash migrations pay host software mediation.
func G10Host(pcfg planner.Config) gpu.Policy {
	pcfg.UseSSD = true
	pcfg.UseHost = true
	return &g10{reactive: reactive{name: "G10-Host"}, plannerCfg: pcfg}
}

func (p *g10) Attach(m *gpu.Machine) {
	p.m = m
	p.infos = m.Analysis().Infos
}

// MakeRoom evicts the farthest-next-use resident tensors first: the
// compiler gives G10 exact lifetime knowledge, so its runtime fallback is
// Belady-like rather than LRU.
func (p *g10) MakeRoom(need units.Bytes, pinned map[int]bool) bool {
	n := len(p.m.Graph().Kernels)
	ids := p.m.ResidentLRU()
	sort.Slice(ids, func(i, j int) bool {
		return p.distanceToUse(ids[i], n) > p.distanceToUse(ids[j], n)
	})
	var freed units.Bytes
	for _, id := range ids {
		if freed >= need {
			break
		}
		if pinned[id] {
			continue
		}
		t := p.m.Graph().Tensors[id]
		dst := uvm.InHost
		if p.ssdOnly || p.m.HostFree() < t.Size {
			dst = uvm.InFlash
		}
		if p.m.RequestEvict(id, dst) {
			freed += t.Size
		}
	}
	return freed > 0
}

// distanceToUse is the kernel distance from the current boundary to the
// tensor's next use (cyclic across the iteration for globals).
func (p *g10) distanceToUse(id, n int) int {
	u := p.infos[id].Uses
	if len(u) == 0 {
		return 2 * n
	}
	b := p.boundary
	i := sort.SearchInts(u, b)
	if i < len(u) {
		return u[i] - b
	}
	// Next use is in the following iteration.
	return n - b + u[0]
}

// safetyLookahead is how many kernels ahead the runtime migration handler
// re-issues prefetches for tensors the static plan did not cover (e.g.
// dynamically evicted under residual memory pressure). The handler has the
// compiler's exact use information, so unlike DeepUM's correlation window
// this never fetches dead data.
const safetyLookahead = 8

// OnMiss: with the unified page table and the instrumented program in
// hand, the migration handler services a late tensor as a scheduled
// transfer (the kernel stalls on the DMA), not as a page-fault storm —
// §4.6's "G10 minimizes unexpected page faults and data migrations".
func (p *g10) OnMiss(k int, t *dnn.Tensor) {
	p.m.RequestScheduledFetch(t.ID)
}

// AtBoundary re-issues prefetches for any absent tensor used within the
// lookahead window. With a fully resolved plan every upcoming tensor is
// already resident or in flight and this is a no-op.
func (p *g10) AtBoundary(iter, b int) {
	p.boundary = b
	g := p.m.Graph()
	for j := b; j < b+safetyLookahead && j < len(g.Kernels); j++ {
		for _, t := range g.Kernels[j].Tensors() {
			loc := p.m.Loc(t.ID)
			if (loc == uvm.InHost || loc == uvm.InFlash) && !p.m.InFlight(t.ID) {
				p.m.RequestFetch(t.ID, uvm.Prefetch)
			}
		}
	}
}

// Program runs the smart migration scheduler (Algorithm 1 + §4.4) over the
// analysis and returns the instrumented program. An attached policy plans
// its machine's analysis through the machine's gpu.PlanCache (the run's
// own, or ClusterParams.Plans), so identical tenants of one co-simulation,
// and of every run sharing the cache, share a single plan; an unattached
// one runs the planner directly.
func (p *g10) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	pcfg := p.plannerCfg
	if pcfg.GPUCapacity == 0 {
		pcfg.GPUCapacity = cfg.GPUCapacity
	}
	if pcfg.HostCapacity == 0 {
		pcfg.HostCapacity = cfg.HostCapacity
	}
	if pcfg.SSDWriteBW == 0 {
		pcfg.SSDWriteBW = cfg.SSD.WriteBandwidth
	}
	if pcfg.SSDReadBW == 0 {
		pcfg.SSDReadBW = cfg.SSD.ReadBandwidth
	}
	if pcfg.HostWriteBW == 0 {
		pcfg.HostWriteBW = cfg.PCIeBandwidth
	}
	if pcfg.HostReadBW == 0 {
		pcfg.HostReadBW = cfg.PCIeBandwidth
	}
	if p.m == nil {
		p.plan = planner.New(a, pcfg)
	} else {
		p.plan = p.m.Plan(pcfg)
	}
	return p.plan.Program
}

// Plan exposes the planner output after Program has run (for experiments
// that report planned traffic). It is read-only: tenants planning through
// one cache with the same job and configuration share it.
func (p *g10) Plan() *planner.Plan { return p.plan }

// Planner is implemented by policies that expose their plan.
type Planner interface {
	Plan() *planner.Plan
}
