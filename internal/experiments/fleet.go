// Fleet study: a dynamic-arrival job mix on one shared flash array — the
// regime TENSILE (many workloads on one GPU memory scheduler) and 10Cache
// (tensor caching across large training fleets) describe, now tractable
// because the cluster engine's event-driven scheduler steps only the
// tenants whose events fire. Jobs drawn from a mixed BERT/ResNet/Inception
// catalogue arrive on a fixed-seed Poisson-style trace and contend on the
// array, the host pool, and the host bus; the study compares G10 against
// reactive baselines on per-job slowdown distribution, makespan, and
// attributed flash wear.
package experiments

import (
	"fmt"
	"math"

	"g10sim/internal/gpu"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// fleetModels is the job catalogue, cycled in arrival order.
var fleetModels = []string{"BERT", "ResNet152", "Inceptionv3"}

// fleetPolicies are the compared designs: the full system against the
// strongest reactive baseline and plain demand paging.
var fleetPolicies = []string{"G10", "DeepUM+", "Base UVM"}

// fleetSeed fixes the arrival trace; every policy row replays the same
// trace, so rows differ only in migration policy.
const fleetSeed = 0x67313066 // "g10f"

// FleetJob describes one admitted job of a fleet trace.
type FleetJob struct {
	Model      string
	Batch      int
	ArrivalSec float64
}

// FleetRow summarises one (policy, fleet size) cell.
type FleetRow struct {
	Policy  string
	Tenants int

	MakespanSec float64
	// Slowdown is a job's wall-clock span (finish − arrival) divided by its
	// span running alone on a dedicated slice of the same hardware under
	// the same policy; the distribution is over the fleet's jobs.
	MeanSlowdown float64
	P50Slowdown  float64
	P95Slowdown  float64
	MaxSlowdown  float64

	// ArrayWriteGB is the shared array's absorbed host-write volume and
	// ArrayWA its array-level write amplification; WearByModelGB attributes
	// the NAND wear (including GC relocations each job triggered) to the
	// job classes that caused it.
	ArrayWriteGB  float64
	ArrayWA       float64
	WearByModelGB map[string]float64
	FailedTenants int
}

// fleetCounts reports the studied fleet sizes under the session's scope.
func (s *Session) fleetCounts() []int {
	if s.opt.Short {
		return []int{16}
	}
	return []int{16, 64}
}

// fleetLCG advances the fixed-seed generator (the same multiplier the SSD
// churn bench uses); the high 53 bits become a uniform in (0, 1].
func fleetLCG(x uint64) (uint64, float64) {
	x = x*6364136223846793005 + 1442695040888963407
	u := (float64(x>>11) + 1) / (1 << 53)
	return x, u
}

// fleetTrace builds the n-job arrival trace: models cycle through the
// catalogue and inter-arrival gaps are exponential (Poisson process) with a
// mean of 1/8 of the catalogue's average ideal iteration span, so arrivals
// heavily overlap. The trace is a pure function of n and the fixed seed.
func (s *Session) fleetTrace(n int) ([]FleetJob, error) {
	var meanIdeal float64
	for _, model := range fleetModels {
		a, err := s.fleetAnalysis(model)
		if err != nil {
			return nil, err
		}
		iters := gpu.Default().Iterations
		meanIdeal += a.Trace.Total().Seconds() * float64(iters)
	}
	meanIdeal /= float64(len(fleetModels))
	meanGap := meanIdeal / 8

	jobs := make([]FleetJob, n)
	x := uint64(fleetSeed)
	at := 0.0
	for i := range jobs {
		model := fleetModels[i%len(fleetModels)]
		jobs[i] = FleetJob{Model: model, Batch: shortBatch[model], ArrivalSec: at}
		var u float64
		x, u = fleetLCG(x)
		at += -meanGap * math.Log(u)
	}
	return jobs, nil
}

// fleetAnalysis is the catalogue workload at its fleet (short) batch size.
func (s *Session) fleetAnalysis(model string) (*vitality.Analysis, error) {
	return s.Analysis(model, shortBatch[model])
}

// fleetShared sizes the substrate for an n-job fleet: one drive per 16
// GPUs (bandwidth and capacity scale with the array), and a host pool of
// twice the mean per-job dedicated budget — a quarter of the ~8-job steady
// concurrency the arrival rate produces — so overlapping jobs genuinely
// contend for host capacity and spill to the shared flash, the regime the
// study is about. The pool tracks concurrency rather than total job count:
// a longer trace raises sustained pressure, not provisioned capacity.
func (s *Session) fleetShared(jobs []FleetJob) (gpu.Config, error) {
	var shared gpu.Config
	var hostSum units.Bytes
	for _, j := range jobs {
		a, err := s.fleetAnalysis(j.Model)
		if err != nil {
			return gpu.Config{}, err
		}
		cfg := scaledConfig(a)
		if shared.SSD.Capacity == 0 {
			shared = cfg
		}
		hostSum += cfg.HostCapacity
	}
	drives := len(jobs) / 16
	if drives < 1 {
		drives = 1
	}
	shared.SSD = shared.SSD.Array(drives)
	shared.HostCapacity = 2 * hostSum / units.Bytes(len(jobs))
	return shared, nil
}

// fleetParams assembles the co-simulation for one (policy, trace) cell.
func (s *Session) fleetParams(polName string, jobs []FleetJob) (gpu.ClusterParams, error) {
	shared, err := s.fleetShared(jobs)
	if err != nil {
		return gpu.ClusterParams{}, err
	}
	p := gpu.ClusterParams{Shared: shared}
	for _, j := range jobs {
		a, err := s.fleetAnalysis(j.Model)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		pol, err := NewPolicy(polName)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		p.Tenants = append(p.Tenants, gpu.ClusterTenant{
			Analysis:    a,
			Policy:      pol,
			Config:      scaledConfig(a),
			ArrivalTime: units.Time(j.ArrivalSec * float64(units.Second)),
		})
	}
	return p, nil
}

// fleetSolo runs one catalogue job alone on a dedicated slice (its own
// scaled config as the whole substrate) under the given policy — the
// slowdown baseline.
func (s *Session) fleetSolo(model, polName string) (gpu.ClusterResult, error) {
	key := fmt.Sprintf("fleet-solo/%s/%s", model, polName)
	return s.RunCluster(key, func() (gpu.ClusterParams, error) {
		a, err := s.fleetAnalysis(model)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		pol, err := NewPolicy(polName)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		cfg := scaledConfig(a)
		return gpu.ClusterParams{
			Tenants: []gpu.ClusterTenant{{Analysis: a, Policy: pol, Config: cfg}},
			Shared:  cfg,
		}, nil
	})
}

// slowdownDistribution computes each trace job's slowdown — its
// co-simulated span over the span of the same job alone on a dedicated
// slice under the same policy (solos, in fleetModels order) — in trace
// order, skipping (and counting) failed tenants.
func slowdownDistribution(trace []FleetJob, cres gpu.ClusterResult, solos []gpu.ClusterResult) (slowdowns []float64, failed int) {
	soloSpan := make(map[string]units.Duration, len(fleetModels))
	for i, model := range fleetModels {
		soloSpan[model] = solos[i].Spans[0].Duration()
	}
	for i, j := range trace {
		if cres.Tenants[i].Failed {
			failed++
			continue
		}
		if soloSpan[j.Model] <= 0 {
			continue
		}
		slowdowns = append(slowdowns, float64(cres.Spans[i].Duration())/float64(soloSpan[j.Model]))
	}
	return slowdowns, failed
}

// distStats summarises a slowdown sample (zero when the sample is empty).
type distStats struct {
	Mean, P50, P95, Max float64
}

func summarize(slowdowns []float64) distStats {
	if len(slowdowns) == 0 {
		return distStats{}
	}
	var st distStats
	for _, sd := range slowdowns {
		st.Mean += sd
	}
	st.Mean /= float64(len(slowdowns))
	sorted := sortedCopy(slowdowns)
	st.P50 = percentile(sorted, 0.50)
	st.P95 = percentile(sorted, 0.95)
	st.Max = sorted[len(sorted)-1]
	return st
}

// fleetCell runs (or returns the cached) co-simulation for one cell.
func (s *Session) fleetCell(polName string, n int) (gpu.ClusterResult, error) {
	key := fmt.Sprintf("fleet/%s/%d", polName, n)
	return s.RunCluster(key, func() (gpu.ClusterParams, error) {
		jobs, err := s.fleetTrace(n)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		return s.fleetParams(polName, jobs)
	})
}

// fleetRun is one (policy, fleet size) co-simulation of the fleet trace and
// the per-job slowdowns it implies. Shared by the fleet and adapt studies.
type fleetRun struct {
	pol    string
	n      int
	trace  []FleetJob
	res    gpu.ClusterResult
	stats  distStats
	failed int
}

// fleetRuns co-simulates the fleet trace at every studied size under every
// policy, fanning each cell and each catalogue model's dedicated-slice solo
// under that policy across the worker pool, and returns the cells in
// (size, policy) order.
func (s *Session) fleetRuns(policies []string) ([]fleetRun, error) {
	var jobs []func() (gpu.ClusterResult, error)
	for _, n := range s.fleetCounts() {
		for _, pol := range policies {
			jobs = append(jobs, func() (gpu.ClusterResult, error) { return s.fleetCell(pol, n) })
			for _, model := range fleetModels {
				jobs = append(jobs, func() (gpu.ClusterResult, error) { return s.fleetSolo(model, pol) })
			}
		}
	}
	res, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	var runs []fleetRun
	for _, n := range s.fleetCounts() {
		trace, err := s.fleetTrace(n)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			cres, solos := res[0], res[1:1+len(fleetModels)]
			res = res[1+len(fleetModels):]
			slowdowns, failed := slowdownDistribution(trace, cres, solos)
			runs = append(runs, fleetRun{pol: pol, n: n, trace: trace, res: cres, stats: summarize(slowdowns), failed: failed})
		}
	}
	return runs, nil
}

// Fleet runs the dynamic-arrival fleet study and prints per-policy rows:
// slowdown distribution across jobs, makespan, and attributed flash wear.
// Results are deterministic at any Options.Workers setting — the arrival
// trace is a fixed-seed pure function and every cluster simulates once
// behind the session's single-flight cache.
func Fleet(s *Session) ([]FleetRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Fleet study: dynamic-arrival mixed jobs on one shared array ===")
	fmt.Fprintf(w, "catalogue %v, Poisson-style fixed-seed arrivals, per-job slowdown vs dedicated slice\n", fleetModels)
	fmt.Fprintf(w, "%-10s %7s %10s %7s %7s %7s %7s %10s %6s %5s\n",
		"policy", "tenants", "makespan", "mean", "p50", "p95", "max", "arr-wr(GB)", "WA", "fail")

	runs, err := s.fleetRuns(fleetPolicies)
	if err != nil {
		return nil, err
	}
	var rows []FleetRow
	for _, r := range runs {
		row := FleetRow{
			Policy:        r.pol,
			Tenants:       r.n,
			MakespanSec:   r.res.Makespan.Seconds(),
			MeanSlowdown:  r.stats.Mean,
			P50Slowdown:   r.stats.P50,
			P95Slowdown:   r.stats.P95,
			MaxSlowdown:   r.stats.Max,
			ArrayWriteGB:  r.res.SSDStats.HostWriteBytes.GiB(),
			ArrayWA:       r.res.WriteAmp,
			WearByModelGB: make(map[string]float64),
			FailedTenants: r.failed,
		}
		for i, j := range r.trace {
			row.WearByModelGB[j.Model] += r.res.Tenants[i].SSDStats.NANDWriteBytes.GiB()
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %7d %9.2fs %6.2fx %6.2fx %6.2fx %6.2fx %10.1f %6.2f %5d\n",
			row.Policy, row.Tenants, row.MakespanSec, row.MeanSlowdown, row.P50Slowdown,
			row.P95Slowdown, row.MaxSlowdown, row.ArrayWriteGB, row.ArrayWA, row.FailedTenants)
		for _, model := range fleetModels {
			fmt.Fprintf(w, "%-10s   wear %-12s %8.1f GB NAND (attributed)\n", "", model, row.WearByModelGB[model])
		}
	}
	return rows, nil
}
