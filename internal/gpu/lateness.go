package gpu

import (
	"g10sim/internal/flownet"
	"g10sim/internal/planner"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
)

// LatenessSignal is the migration-contention observation a machine
// accumulates: for every completed chunk flow, the realized wire time
// against the exclusive-bandwidth time the same bytes would have taken with
// the route to itself — the planning-time assumption. Under contention the
// realized durations stretch; the ratio is the per-direction inflation an
// online replanner re-times the next iteration's instructions with. The
// machine keeps cumulative totals; the runner snapshots per-iteration
// deltas with Sub.
type LatenessSignal struct {
	// Fetch covers host/flash -> GPU transfers (prefetches and demand
	// fetches); Evict covers GPU -> host/flash pre-evictions.
	FetchFlows, EvictFlows int64
	FetchBytes, EvictBytes units.Bytes
	// Realized sums each chunk flow's wall time on the wire (completion
	// minus activation; fixed device latencies are excluded from both
	// sides). Exclusive sums the bottleneck-bandwidth time of the same
	// flows.
	FetchRealized, FetchExclusive units.Duration
	EvictRealized, EvictExclusive units.Duration
	// LateFetches counts planned tensors a kernel still had to wait for:
	// scheduled fetches issued for absent planned tensors and queued
	// prefetches upgraded to fault priority — the plan's deadline misses.
	LateFetches int64
}

// Sub returns the delta signal since prev (a snapshot of the same machine).
func (s LatenessSignal) Sub(prev LatenessSignal) LatenessSignal {
	return LatenessSignal{
		FetchFlows:     s.FetchFlows - prev.FetchFlows,
		EvictFlows:     s.EvictFlows - prev.EvictFlows,
		FetchBytes:     s.FetchBytes - prev.FetchBytes,
		EvictBytes:     s.EvictBytes - prev.EvictBytes,
		FetchRealized:  s.FetchRealized - prev.FetchRealized,
		FetchExclusive: s.FetchExclusive - prev.FetchExclusive,
		EvictRealized:  s.EvictRealized - prev.EvictRealized,
		EvictExclusive: s.EvictExclusive - prev.EvictExclusive,
		LateFetches:    s.LateFetches - prev.LateFetches,
	}
}

// FetchInflation reports realized over exclusive fetch time (>= 1); 1 when
// nothing was fetched.
func (s LatenessSignal) FetchInflation() float64 {
	return inflation(s.FetchRealized, s.FetchExclusive)
}

// EvictInflation reports realized over exclusive evict time (>= 1); 1 when
// nothing was evicted.
func (s LatenessSignal) EvictInflation() float64 {
	return inflation(s.EvictRealized, s.EvictExclusive)
}

func inflation(realized, exclusive units.Duration) float64 {
	if exclusive <= 0 {
		return 1
	}
	f := float64(realized) / float64(exclusive)
	if f < 1 {
		return 1
	}
	return f
}

// Replanner is implemented by policies that re-time their instrumented
// program between iterations from observed migration lateness — the
// contention-adaptive G10 variant. The runner calls NextProgram at every
// iteration-closing boundary (except the last) with the just-finished
// iteration's signal; returning nil keeps the current program. Static
// policies simply do not implement it, so the two variants coexist on one
// runner without a mode flag.
type Replanner interface {
	NextProgram(iter int, sig LatenessSignal, cur *planner.Program) *planner.Program
}

// Lateness reports the machine's cumulative lateness signal.
func (m *Machine) Lateness() LatenessSignal { return m.lat }

// noteChunkDone folds one completed chunk flow into the lateness ledger.
func (m *Machine) noteChunkDone(mig *migration, f *flownet.Flow) {
	realized := f.CompletedAt - f.StartAt
	exclusive := units.TransferTime(f.Size, routeBottleneck(mig.route))
	if realized < exclusive {
		realized = exclusive // absorb completion-time rounding
	}
	if mig.kind == uvm.PreEvict {
		m.lat.EvictFlows++
		m.lat.EvictBytes += mig.chunk
		m.lat.EvictRealized += realized
		m.lat.EvictExclusive += exclusive
	} else {
		m.lat.FetchFlows++
		m.lat.FetchBytes += mig.chunk
		m.lat.FetchRealized += realized
		m.lat.FetchExclusive += exclusive
	}
}

// routeBottleneck reports the narrowest current capacity on a route.
func routeBottleneck(route []*flownet.Resource) units.Bandwidth {
	var min units.Bandwidth
	for i, r := range route {
		if c := r.Capacity(); i == 0 || c < min {
			min = c
		}
	}
	return min
}
