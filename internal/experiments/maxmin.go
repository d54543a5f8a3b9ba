// Max-min fill study: the heap-driven fill on its target topology. A
// synthetic one-giant-component network (F flows crossing 8 shared
// channels, every route chaining two channels so all tenants couple into
// one component) runs a fixed number of attach/detach churn events — the
// fleet regime's hot loop — and the figure reports the engine's fill
// counters: bottleneck rounds and resource scans. Every printed number is a
// pure function of the seeded workload, so the golden snapshot pins the
// mechanism; the figure's wall time in `g10bench -bench` is the
// regression-gated cost of the same loop.
package experiments

import (
	"fmt"
	"math/rand"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
)

// maxMinFillSizes reports the studied fleet sizes under the session's
// scope. Full mode includes the F=10⁴ point the tentpole's ≥5x claim is
// about; short mode stays in the sub-second range.
func (s *Session) maxMinFillSizes() (sizes []int, events int) {
	if s.opt.Short {
		return []int{100, 1000}, 400
	}
	return []int{100, 1000, 10000}, 1200
}

// MaxMinFillRow summarises one fleet size of the churn study.
type MaxMinFillRow struct {
	Flows  int
	Events int
	// FillRounds counts bottleneck selections across every rate
	// re-derivation; FillResScans counts resource examinations (heap
	// builds plus per-round touched sets).
	FillRounds   int64
	FillResScans int64
}

// MaxMinFill runs the max-min fill churn study. Each event advances the
// network to the next flow completion and restarts the finished flows on
// their original routes, so every event costs one detach, one attach, and
// one rate re-derivation on the giant component.
func MaxMinFill(s *Session) ([]MaxMinFillRow, error) {
	w := s.opt.writer()
	sizes, events := s.maxMinFillSizes()
	fmt.Fprintln(w, "=== Max-min fill study: heap fill on giant-component churn ===")
	fmt.Fprintf(w, "%7s %7s %10s %12s\n", "flows", "events", "rounds", "res-scans")

	var rows []MaxMinFillRow
	for _, F := range sizes {
		n := flownet.New()
		chans := make([]*flownet.Resource, 8)
		for i := range chans {
			chans[i] = n.AddResource(fmt.Sprintf("chan%d", i), units.GBps(4))
		}
		rng := rand.New(rand.NewSource(42))
		size := func() units.Bytes { return units.Bytes(8+rng.Intn(64)) * units.MB }
		for i := 0; i < F; i++ {
			p := n.AddResource(fmt.Sprintf("gpu%d/pcie", i), units.GBps(16))
			route := []*flownet.Resource{p, chans[i%8], chans[(i+1)%8]}
			n.Start(fmt.Sprintf("f%d", i), size(), route, route...)
		}
		for e := 0; e < events; e++ {
			done := n.AdvanceTo(n.NextEvent())
			for _, f := range done {
				route := f.Data.([]*flownet.Resource)
				n.Start(f.Label, size(), route, route...)
			}
		}
		row := MaxMinFillRow{
			Flows: F, Events: events,
			FillRounds:   n.FillRounds(),
			FillResScans: n.FillResScans(),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%7d %7d %10d %12d\n",
			row.Flows, row.Events, row.FillRounds, row.FillResScans)
	}
	return rows, nil
}
