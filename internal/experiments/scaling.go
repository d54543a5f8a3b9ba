// Scaling study: the cluster engine at fleet sizes. One policy (the full
// system) replays growing prefixes of the fixed-seed fleet arrival trace,
// and the figure reports the scheduler's step-machine cost next to the
// simulated makespan — the near-linear-steps claim of the event-driven
// engine. Every printed number, the step count included, is a pure
// function of the trace, so this figure's golden snapshot pins both.
package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
)

// scalingPolicy fixes the compared design; the fleet study covers the
// policy spread, this study covers the size axis.
const scalingPolicy = "G10"

// scalingCounts reports the studied fleet sizes under the session's scope.
// The jobs come from the fleet catalogue at its short batches in either
// scope, so the large sizes stay tractable.
func (s *Session) scalingCounts() []int {
	if s.opt.Short {
		return []int{16, 32}
	}
	return []int{64, 256}
}

// ScalingRow summarises one fleet size.
type ScalingRow struct {
	Tenants     int
	MakespanSec float64
	// Steps counts scheduler step-machine invocations across the run —
	// the engine-cost metric the near-linear scaling claim is about.
	Steps          int64
	StepsPerTenant float64
	FailedTenants  int
}

// Scaling runs the cluster-engine scaling study. It bypasses the session's
// cluster cache so the step counter is attributed to exactly one run per
// size; the trace and jobs are shared with the fleet study through the
// session's analysis and program caches.
func Scaling(s *Session) ([]ScalingRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Scaling study: cluster engine cost vs fleet size ===")
	fmt.Fprintf(w, "policy %s, fleet arrival trace, scheduler steps per co-simulation\n", scalingPolicy)
	fmt.Fprintf(w, "%7s %10s %12s %12s %5s\n", "tenants", "makespan", "steps", "steps/tenant", "fail")

	var rows []ScalingRow
	for _, n := range s.scalingCounts() {
		jobs, err := s.fleetTrace(n)
		if err != nil {
			return nil, err
		}
		p, err := s.fleetParams(scalingPolicy, jobs)
		if err != nil {
			return nil, err
		}
		var steps int64
		p.StepCount = &steps
		res, err := gpu.RunCluster(p)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d: %w", n, err)
		}
		row := ScalingRow{
			Tenants:        n,
			MakespanSec:    res.Makespan.Seconds(),
			Steps:          steps,
			StepsPerTenant: float64(steps) / float64(n),
		}
		for _, tr := range res.Tenants {
			if tr.Failed {
				row.FailedTenants++
			}
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%7d %9.2fs %12d %12.1f %5d\n",
			row.Tenants, row.MakespanSec, row.Steps, row.StepsPerTenant, row.FailedTenants)
	}
	return rows, nil
}
