package planner

import (
	"fmt"

	"g10sim/internal/dnn"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// OpKind is the instrumentation instruction set of §4.4/Figure 9.
type OpKind int

const (
	// OpAlloc is g10_alloc: asynchronously allocate a GPU buffer.
	OpAlloc OpKind = iota
	// OpFree is g10_free: asynchronously release a buffer.
	OpFree
	// OpPreEvict is g10_pre_evict(vaddr, size, target).
	OpPreEvict
	// OpPrefetch is g10_prefetch(vaddr, size).
	OpPrefetch
)

func (k OpKind) String() string {
	switch k {
	case OpAlloc:
		return "g10_alloc"
	case OpFree:
		return "g10_free"
	case OpPreEvict:
		return "g10_pre_evict"
	case OpPrefetch:
		return "g10_prefetch"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Instr is one instrumented instruction.
type Instr struct {
	Kind   OpKind
	Tensor *dnn.Tensor
	// Target is the eviction destination for OpPreEvict.
	Target uvm.Location
}

func (in Instr) String() string {
	if in.Kind == OpPreEvict {
		return fmt.Sprintf("%s(%s, %v, %v)", in.Kind, in.Tensor.Name, in.Tensor.Size, in.Target)
	}
	return fmt.Sprintf("%s(%s, %v)", in.Kind, in.Tensor.Name, in.Tensor.Size)
}

// Program is the instrumented GPU program: the graph's kernel stream plus
// instructions issued at kernel boundaries. Boundaries[b] runs before
// kernel b; Boundaries[n] runs after the last kernel of the iteration.
type Program struct {
	Boundaries [][]Instr

	// retime anchors online re-timing at the original plan (see Retime).
	// Only programs built by planner.New carry it; emit-only programs
	// (baselines, externally constructed decisions) are not retimable.
	retime *retimeState
}

// retimeState is the planning-time context Retime rebuilds boundaries from.
// Every field is read-only after planner.New returns, so retimed copies of
// one program share it freely across goroutines.
type retimeState struct {
	a         *vitality.Analysis
	cfg       Config
	tl        *timeline
	decisions []Decision
	// prefetchSlots holds each decision's final global prefetch slot from
	// the eager-rescheduling walk — the anchor Retime never issues later
	// than (the modular PrefetchBoundary alone cannot recover it for
	// wrapping periods).
	prefetchSlots []int
}

// emit lowers vitality analysis plus migration decisions into the
// instruction stream, ordering each boundary as: frees, pre-evictions,
// allocations, prefetches (release memory before claiming it). Instruction
// class c of boundary b goes to slot 4b+c: a counting pass sizes the slots,
// and a second fills one exactly sized list that every boundary slices
// with its capacity capped, so appending to one cannot overwrite the next.
func emit(a *vitality.Analysis, decisions []Decision) *Program {
	n := len(a.Graph.Kernels)
	each := func(put func(slot int, in Instr)) {
		for id := range a.Infos {
			info := &a.Infos[id]
			t := info.Tensor
			if t.Kind == dnn.Global {
				continue // allocated once at program start, never freed
			}
			put(4*info.BornAt+2, Instr{Kind: OpAlloc, Tensor: t})
			if info.DeadAt <= n {
				put(4*info.DeadAt, Instr{Kind: OpFree, Tensor: t})
			}
		}
		for i := range decisions {
			d := &decisions[i]
			put(4*d.EvictBoundary+1, Instr{Kind: OpPreEvict, Tensor: d.Period.Tensor, Target: d.Target})
			put(4*d.PrefetchBoundary+3, Instr{Kind: OpPrefetch, Tensor: d.Period.Tensor})
		}
	}

	// next[s] counts slot s's instructions into next[s+1], then holds the
	// list index of its next instruction.
	next := make([]int, 4*(n+1)+1)
	each(func(s int, _ Instr) { next[s+1]++ })
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	list := make([]Instr, next[len(next)-1])
	p := &Program{Boundaries: make([][]Instr, n+1)}
	for b := range p.Boundaries {
		lo, hi := next[4*b], next[4*b+4]
		p.Boundaries[b] = list[lo:hi:hi]
	}
	each(func(s int, in Instr) {
		list[next[s]] = in
		next[s]++
	})
	return p
}

// EmptyProgram builds a program with allocation/free instrumentation only —
// what a non-G10 memory manager sees (baselines manage migrations
// themselves).
func EmptyProgram(a *vitality.Analysis) *Program {
	return emit(a, nil)
}

// CountKind reports how many instructions of one kind the program contains.
func (p *Program) CountKind(k OpKind) int {
	var n int
	for _, b := range p.Boundaries {
		for _, in := range b {
			if in.Kind == k {
				n++
			}
		}
	}
	return n
}

// EmitProgram lowers externally constructed decisions (e.g. FlashNeuron's
// offline offload plan) into an instrumented program.
func EmitProgram(a *vitality.Analysis, decisions []Decision) *Program {
	return emit(a, decisions)
}

// Retiming scales the plan's transfer-time estimates by the inflation an
// online controller observed on the shared substrate (realized transfer
// duration over the exclusive-bandwidth duration the plan assumed, >= 1).
type Retiming struct {
	// FetchInflation stretches each prefetch's transfer window: the issue
	// boundary moves early enough that the read, slowed by this factor,
	// still lands by the plan's original deadline. 1 leaves prefetches at
	// their planned boundaries.
	FetchInflation float64
	// EvictInflation stretches eviction write times when deferring.
	EvictInflation float64
	// DeferEvictions pushes each pre-eviction's issue boundary later while
	// the write — at EvictInflation times its exclusive duration — still
	// completes by the plan's original completion estimate. Intended for
	// an idle device (EvictInflation ~ 1), where the plan's channel-queue
	// pessimism leaves slack: tensors stay resident longer and a use
	// before the deferred boundary cancels the eviction entirely.
	DeferEvictions bool
}

// Retime rebuilds the instruction stream with each decision's prefetch
// (and, optionally, pre-eviction) boundary re-timed against rt. Re-timing
// is always anchored at the original plan — retiming a retimed program with
// new factors recomputes from the same planning-time estimates, so factors
// do not compound across iterations. A prefetch never issues later than its
// planned boundary and never before the boundary after its eviction's
// planned completion. The receiver is returned unchanged when the factors
// ask for nothing (or the program is not retimable: it carries no plan).
func (p *Program) Retime(rt Retiming) *Program {
	rs := p.retime
	if rs == nil || len(rs.decisions) == 0 {
		return p
	}
	if rt.FetchInflation <= 1 && !rt.DeferEvictions {
		return p
	}
	if rt.FetchInflation < 1 {
		rt.FetchInflation = 1
	}
	if rt.EvictInflation < 1 {
		rt.EvictInflation = 1
	}
	dec := make([]Decision, len(rs.decisions))
	copy(dec, rs.decisions)
	changed := false
	for i := range dec {
		d := &dec[i]
		size := d.Period.Tensor.Size

		// Prefetch: issue early enough that the transfer, stretched by the
		// observed inflation, still meets the planned deadline.
		span := d.Deadline - d.PrefetchStart
		newStart := d.Deadline - units.Time(float64(span)*rt.FetchInflation)
		g := rs.tl.cyclicSlot(newStart)
		if lim := rs.tl.cyclicSlot(d.EvictDone) + 1; g < lim {
			g = lim
		}
		if planned := rs.prefetchSlots[i]; g > planned {
			g = planned // never later than the plan's eager boundary
		}
		if nb := rs.tl.mod(g); nb != d.PrefetchBoundary {
			d.PrefetchBoundary = nb
			changed = true
		}

		// Pre-eviction: on an idle write path, defer the issue while the
		// write still lands by the plan's (queue-pessimistic) completion.
		if rt.DeferEvictions {
			write := units.Duration(float64(writeTime(size, d.Target, rs.cfg)) * rt.EvictInflation)
			e := d.EvictBoundary
			for e+1 <= rs.tl.n && e+1 < g &&
				rs.tl.starts[e+1]+write <= d.EvictDone {
				e++
			}
			if e != d.EvictBoundary {
				d.EvictBoundary = e
				changed = true
			}
		}
	}
	if !changed {
		return p
	}
	np := emit(rs.a, dec)
	np.retime = rs
	return np
}

// writeTime is the exclusive-bandwidth eviction write duration the plan
// assumed for a decision's destination.
func writeTime(size units.Bytes, target uvm.Location, cfg Config) units.Duration {
	if target == uvm.InHost {
		return units.TransferTime(size, cfg.HostWriteBW)
	}
	return units.TransferTime(size, cfg.SSDWriteBW)
}
