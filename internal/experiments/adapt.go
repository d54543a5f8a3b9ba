// Adapt study: contention-adaptive smart migrations on the fleet trace.
// G10's offline plan assumes exclusive SSD and host bandwidth; on a shared
// array its prefetch deadlines silently slip — the gap TENSILE (runtime
// tensor scheduling under multi-workload dynamics) and 10Cache (migration
// from observed resource pressure) make central. The study replays the PR 3
// fixed-seed fleet trace and compares static G10 against G10 with the
// online replanning layer (internal/adapt) and the strongest reactive
// baseline, on the per-job slowdown distribution. This is the first
// scenario where G10's offline plan is measurably beaten by its own
// adaptive variant.
package experiments

import (
	"fmt"
)

// adaptPolicies are the compared designs: the static plan, the plan with
// online re-timing, and the reactive baseline that needs no plan at all.
var adaptPolicies = []string{"G10", "G10-Adaptive", "DeepUM+"}

// AdaptRow summarises one (policy, fleet size) cell of the adapt study.
type AdaptRow struct {
	Policy  string
	Tenants int

	MakespanSec  float64
	MeanSlowdown float64
	P50Slowdown  float64
	P95Slowdown  float64
	MaxSlowdown  float64

	FailedTenants int
}

// Adapt runs the contention-adaptation study: the fleet arrival trace at
// each studied size under static G10, adaptive G10, and DeepUM+, reporting
// the per-job slowdown distribution versus a dedicated slice. Rows share
// the session's cluster cache with the Fleet study (the G10 and DeepUM+
// cells are the same co-simulations), and the output is deterministic at
// any Options.Workers setting.
func Adapt(s *Session) ([]AdaptRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Adapt study: static vs contention-adaptive G10 on the fleet trace ===")
	fmt.Fprintf(w, "catalogue %v, fixed-seed arrivals; adaptive G10 re-times its plan against observed lateness\n", fleetModels)
	fmt.Fprintf(w, "%-14s %7s %10s %7s %7s %7s %7s %5s\n",
		"policy", "tenants", "makespan", "mean", "p50", "p95", "max", "fail")

	runs, err := s.fleetRuns(adaptPolicies)
	if err != nil {
		return nil, err
	}
	var rows []AdaptRow
	for _, r := range runs {
		row := AdaptRow{
			Policy:        r.pol,
			Tenants:       r.n,
			MakespanSec:   r.res.Makespan.Seconds(),
			MeanSlowdown:  r.stats.Mean,
			P50Slowdown:   r.stats.P50,
			P95Slowdown:   r.stats.P95,
			MaxSlowdown:   r.stats.Max,
			FailedTenants: r.failed,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-14s %7d %9.2fs %6.2fx %6.2fx %6.2fx %6.2fx %5d\n",
			row.Policy, row.Tenants, row.MakespanSec, row.MeanSlowdown, row.P50Slowdown,
			row.P95Slowdown, row.MaxSlowdown, row.FailedTenants)
	}
	return rows, nil
}
