// Fault-injection study: the dynamic-arrival fleet under deterministic
// server-crash schedules, comparing recovery policies. A fault-free run
// fixes the horizon H; crash schedules then sweep the per-server MTBF
// (few crashes vs one per server) and each schedule runs once per recovery
// policy — lose-everything restart vs periodic flash checkpoints at the
// Young/Daly auto-interval. The figure reports makespan inflation over the
// fault-free baseline, wasted (re-executed) work, restarts, checkpoint
// flash traffic with per-model wear attribution, and goodput — the fraction
// of occupied span that was useful. Every cell is byte-identical across
// drivers: fault events are applied at the drivers' common pump point (see
// internal/gpu/faults.go).
package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/policy"
	"g10sim/internal/units"
)

// faultPolicy fixes the migration policy; the study varies fault pressure
// and recovery, not migration planning.
const faultPolicy = "G10"

// FaultRow summarises one (MTBF, recovery) cell.
type FaultRow struct {
	// MTBFSec is the per-server mean time between failures the crash
	// schedule implies (0 = the fault-free baseline).
	MTBFSec  float64
	Crashes  int
	Recovery string

	MakespanSec float64
	// Inflation is makespan over the fault-free baseline's.
	Inflation float64
	// WastedSec sums the simulated progress crashes destroyed; Restarts the
	// crash recoveries.
	WastedSec float64
	Restarts  int
	// CheckpointGB is the durable snapshot volume written to flash and
	// ArrayWriteGB the shared array's total absorbed writes; WearByModelGB
	// attributes NAND wear (checkpoints included) to job classes.
	CheckpointGB  float64
	ArrayWriteGB  float64
	WearByModelGB map[string]float64
	// Goodput is the useful fraction of the fleet's occupied span:
	// 1 − wasted / Σ per-job spans.
	Goodput float64
}

// faultTenants reports the fleet size under the session's scope.
func (s *Session) faultTenants() int {
	if s.opt.Short {
		return 8
	}
	return 12
}

// faultSchedule builds the k-crash plan over horizon H (seconds): crashes
// spread evenly across the horizon, victims stride through the fleet, and
// every server repairs after H/20. A pure function of (n, k, H), so the
// schedule is as deterministic as the fleet trace itself.
func faultSchedule(n, k int, H float64) *gpu.FaultPlan {
	sec := float64(units.Second)
	plan := &gpu.FaultPlan{}
	for j := 0; j < k; j++ {
		plan.Crashes = append(plan.Crashes, gpu.CrashFault{
			Tenant:      (j*5 + 1) % n,
			At:          units.Time(H * float64(j+1) / float64(k+1) * sec),
			RepairAfter: units.Duration(H / 20 * sec),
		})
	}
	return plan
}

// faultBaseline runs (or returns the cached) fault-free fleet.
func (s *Session) faultBaseline() (gpu.ClusterResult, error) {
	n := s.faultTenants()
	return s.RunCluster(fmt.Sprintf("faults/baseline/%d", n), func() (gpu.ClusterParams, error) {
		jobs, err := s.fleetTrace(n)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		return s.fleetParams(faultPolicy, jobs)
	})
}

// faultCell runs one (crash count, recovery) cell: the baseline fleet with
// the k-crash schedule injected and every tenant using the given recovery.
func (s *Session) faultCell(k int, recName string, rec gpu.Recovery, H float64) (gpu.ClusterResult, error) {
	n := s.faultTenants()
	key := fmt.Sprintf("faults/%s/%d/%d", recName, n, k)
	return s.RunCluster(key, func() (gpu.ClusterParams, error) {
		jobs, err := s.fleetTrace(n)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		p, err := s.fleetParams(faultPolicy, jobs)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		p.Faults = faultSchedule(n, k, H)
		for i := range p.Tenants {
			p.Tenants[i].Recovery = rec
		}
		return p, nil
	})
}

// faultRecoveries are the compared policies: lose-everything restart and
// Young/Daly auto-interval checkpointing.
func faultRecoveries() []struct {
	name string
	rec  gpu.Recovery
} {
	return []struct {
		name string
		rec  gpu.Recovery
	}{
		{"restart", policy.Restart()},
		{"checkpoint", policy.Checkpoint(0)},
	}
}

// faultRowFrom folds one cluster result into a figure row.
func faultRowFrom(cres gpu.ClusterResult, trace []FleetJob, k int, recName string, H float64) FaultRow {
	row := FaultRow{
		Crashes:       k,
		Recovery:      recName,
		MakespanSec:   cres.Makespan.Seconds(),
		ArrayWriteGB:  cres.SSDStats.HostWriteBytes.GiB(),
		WearByModelGB: make(map[string]float64),
	}
	if k > 0 {
		row.MTBFSec = H * float64(len(trace)) / float64(k)
	}
	if H > 0 {
		row.Inflation = row.MakespanSec / H
	}
	var spanSum float64
	for i, j := range trace {
		t := cres.Tenants[i]
		row.WastedSec += t.WastedTime.Seconds()
		row.Restarts += t.Restarts
		row.CheckpointGB += t.CheckpointBytes.GiB()
		row.WearByModelGB[j.Model] += t.SSDStats.NANDWriteBytes.GiB()
		spanSum += cres.Spans[i].Duration().Seconds()
	}
	row.Goodput = 1
	if spanSum > 0 {
		row.Goodput = 1 - row.WastedSec/spanSum
	}
	return row
}

// Faults runs the fault-injection study: the fleet under crash schedules of
// decreasing MTBF, each recovered by restart and by checkpointing.
func Faults(s *Session) ([]FaultRow, error) {
	w := s.opt.writer()
	n := s.faultTenants()
	fmt.Fprintln(w, "=== Fault injection: crash schedules x recovery policy on the shared-array fleet ===")
	fmt.Fprintf(w, "%d %s tenants, evenly spread crashes (repair H/20), checkpoint = Young/Daly auto-interval\n",
		n, faultPolicy)
	fmt.Fprintf(w, "%-9s %7s %-11s %10s %8s %10s %8s %9s %9s %8s\n",
		"mtbf", "crashes", "recovery", "makespan", "inflate", "wasted", "restarts", "ckpt(GB)", "arr-wr(GB)", "goodput")

	base, err := s.faultBaseline()
	if err != nil {
		return nil, err
	}
	H := base.Makespan.Seconds()
	trace, err := s.fleetTrace(n)
	if err != nil {
		return nil, err
	}
	ks := []int{(n + 3) / 4, n}

	var jobs []func() (FaultRow, error)
	for _, k := range ks {
		for _, rc := range faultRecoveries() {
			jobs = append(jobs, func() (FaultRow, error) {
				cres, err := s.faultCell(k, rc.name, rc.rec, H)
				if err != nil {
					return FaultRow{}, err
				}
				return faultRowFrom(cres, trace, k, rc.name, H), nil
			})
		}
	}
	cells, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	rows := append([]FaultRow{faultRowFrom(base, trace, 0, "none", H)}, cells...)
	for _, row := range rows {
		fmt.Fprintf(w, "%8.1fs %7d %-11s %9.2fs %7.2fx %9.2fs %8d %9.2f %9.1f %8.3f\n",
			row.MTBFSec, row.Crashes, row.Recovery, row.MakespanSec, row.Inflation,
			row.WastedSec, row.Restarts, row.CheckpointGB, row.ArrayWriteGB, row.Goodput)
		for _, model := range fleetModels {
			fmt.Fprintf(w, "%-9s   wear %-12s %8.1f GB NAND (attributed)\n", "", model, row.WearByModelGB[model])
		}
	}
	return rows, nil
}
