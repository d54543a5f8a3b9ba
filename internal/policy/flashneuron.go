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

// flashNeuron models FlashNeuron (FAST'21): a DNN training library that
// offloads intermediate tensors (never weights) to the SSD over direct
// GPU–SSD communication. Its offload set is chosen by linear selection in
// production order until the projected memory pressure fits; evictions
// happen right after a tensor's last forward use and prefetches at the
// analytic latest-safe time before its backward use. It manages memory
// itself (no UVM): a kernel whose working set cannot fit fails the run
// (the paper's footnote 1), and demand misses are synchronous GDS reads
// without the UVM fault round trip.
type flashNeuron struct {
	m *gpu.Machine
	// headroom keeps a fraction of GPU memory unplanned as the library's
	// transfer buffers.
	headroom float64
	// offloadable marks the tensors FlashNeuron's memory manager can move
	// at all: forward-produced intermediates consumed in the backward
	// pass. Everything else is pinned wherever it is, which is why
	// FlashNeuron aborts when a kernel's working set plus pinned data
	// exceeds GPU memory (the paper's footnote 1).
	offloadable map[int]bool
}

// FlashNeuron builds the baseline.
func FlashNeuron() gpu.Policy { return &flashNeuron{headroom: 0.05} }

func (p *flashNeuron) Name() string          { return "FlashNeuron" }
func (p *flashNeuron) Attach(m *gpu.Machine) { p.m = m }
func (p *flashNeuron) UsesUVM() bool         { return false }
func (p *flashNeuron) DirectFlash() bool     { return true }
func (p *flashNeuron) AtBoundary(int, int)   {}

func (p *flashNeuron) OnMiss(k int, t *dnn.Tensor) {
	p.m.RequestFetch(t.ID, uvm.FaultFetch)
}

// MakeRoom: FlashNeuron can only move its offloadable set (forward
// activations); weights, gradients, and workspaces stay pinned.
func (p *flashNeuron) MakeRoom(need units.Bytes, pinned map[int]bool) bool {
	var freed units.Bytes
	for _, id := range p.m.ResidentLRU() {
		if freed >= need {
			break
		}
		if pinned[id] || !p.offloadable[id] {
			continue
		}
		t := p.m.Graph().Tensors[id]
		if p.m.RequestEvict(id, uvm.InFlash) {
			freed += t.Size
		}
	}
	return freed > 0
}

// Program builds FlashNeuron's offline offload schedule.
func (p *flashNeuron) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	budget := units.Bytes(float64(cfg.GPUCapacity) * (1 - p.headroom))
	n := len(a.Graph.Kernels)

	// Candidates: intermediate tensors whose inactive period starts in the
	// forward pass and ends in the backward pass.
	p.offloadable = make(map[int]bool)
	var candidates []*vitality.Period
	for i := range a.Periods {
		per := &a.Periods[i]
		if per.Tensor.Kind != dnn.Intermediate || per.Wraps {
			continue
		}
		if a.Graph.Kernels[per.AfterKernel].Phase != dnn.Forward {
			continue
		}
		if a.Graph.Kernels[per.NextUse].Phase != dnn.Backward {
			continue
		}
		p.offloadable[per.Tensor.ID] = true
		candidates = append(candidates, per)
	}
	// Linear selection in production order.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].AfterKernel != candidates[j].AfterKernel {
			return candidates[i].AfterKernel < candidates[j].AfterKernel
		}
		return candidates[i].Tensor.ID < candidates[j].Tensor.ID
	})

	pressure := make([]units.Bytes, n)
	copy(pressure, a.AliveBytes)
	peak := func() units.Bytes {
		var m units.Bytes
		for _, b := range pressure {
			if b > m {
				m = b
			}
		}
		return m
	}

	wbw := cfg.SSD.WriteBandwidth
	rbw := cfg.SSD.ReadBandwidth
	var decisions []planner.Decision
	for _, per := range candidates {
		if peak() <= budget {
			break
		}
		size := per.Tensor.Size
		evictDone := per.Start + units.TransferTime(size, wbw)
		latest := per.End - units.TransferTime(size, rbw)
		if latest <= evictDone {
			continue // period too short to round-trip the SSD
		}
		// Free window in kernel indices.
		kFrom := sort.Search(n, func(i int) bool { return a.Starts[i] >= evictDone })
		kTo := sort.Search(n, func(i int) bool { return a.Starts[i+1] > latest })
		if kFrom >= kTo {
			continue
		}
		for k := kFrom; k < kTo; k++ {
			pressure[k] -= size
		}
		pf := sort.Search(n, func(i int) bool { return a.Starts[i+1] > latest })
		decisions = append(decisions, planner.Decision{
			Period:           per,
			Target:           uvm.InFlash,
			EvictBoundary:    per.AfterKernel + 1,
			PrefetchBoundary: pf,
			EvictDone:        evictDone,
			PrefetchStart:    latest,
			Deadline:         per.End,
		})
	}
	return planner.EmitProgram(a, decisions)
}
