// Heterogeneous co-location study: distinct models under distinct policies
// sharing one flash array — the scenario the cluster engine exists for.
// 10Cache and TENSILE both observe that co-located training jobs interact
// through shared storage and host memory in ways per-job models miss; this
// experiment quantifies that interference for G10 against its baselines.
package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/units"
)

// colocateJob names one tenant of a co-location mix.
type colocateJob struct {
	Model  string
	Policy string
}

// ColocateRow reports one job of one mix.
type ColocateRow struct {
	Mix    string // e.g. "BERT:G10 + ResNet152:Base UVM"
	Model  string
	Batch  int
	Policy string

	// Norm is the job's normalized performance co-located; SoloNorm the
	// same job alone on the same shared array and host pool. Interference
	// is SoloNorm − Norm (percentage points of ideal lost to neighbours).
	Norm         float64
	SoloNorm     float64
	Interference float64

	// SSDWriteGB and TenantWA are the job's attributed share of the shared
	// array: its flash writes and the write amplification (including GC
	// its writes triggered).
	SSDWriteGB float64
	TenantWA   float64

	Failed bool
}

// colocateMixes is the study's fixed job set: a transformer and a CNN, G10
// against G10 and against reactive baselines on one array.
var colocateMixes = [][]colocateJob{
	{{"BERT", "G10"}, {"ResNet152", "G10"}},
	{{"BERT", "G10"}, {"ResNet152", "Base UVM"}},
	{{"BERT", "DeepUM+"}, {"ResNet152", "G10"}},
}

func mixName(jobs []colocateJob) string {
	out := ""
	for i, j := range jobs {
		if i > 0 {
			out += " + "
		}
		out += j.Model + ":" + j.Policy
	}
	return out
}

// colocateParams assembles one mix's cluster: per-tenant GPU sizing from
// each job's own analysis, one shared array, and a host pool holding the
// sum of the per-job host budgets (so the static and shared totals match).
func (s *Session) colocateParams(jobs []colocateJob) (gpu.ClusterParams, error) {
	var p gpu.ClusterParams
	var hostTotal units.Bytes
	for _, j := range jobs {
		spec, err := models.ByName(j.Model)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		batch := s.batchFor(spec)
		a, err := s.Analysis(j.Model, batch)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		cfg := s.baseConfig(a)
		pol, err := NewPolicy(j.Policy)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		hostTotal += cfg.HostCapacity
		p.Tenants = append(p.Tenants, gpu.ClusterTenant{Analysis: a, Policy: pol, Config: cfg})
		if p.Shared.SSD.Capacity == 0 {
			p.Shared = cfg
		}
	}
	p.Shared.HostCapacity = hostTotal
	return p, nil
}

// colocateSolo runs one job alone on the same shared substrate as mix. The
// cache key names the substrate-relevant inputs (job, batch, host pool)
// rather than the mix, so identical solo runs appearing in several mixes
// simulate once.
func (s *Session) colocateSolo(jobs []colocateJob, idx int) (gpu.ClusterResult, error) {
	p, err := s.colocateParams(jobs)
	if err != nil {
		return gpu.ClusterResult{}, err
	}
	job := jobs[idx]
	key := fmt.Sprintf("colo-solo/%s/%d/%s/host=%d",
		job.Model, p.Tenants[idx].Analysis.Graph.Batch, job.Policy, p.Shared.HostCapacity)
	return s.RunCluster(key, func() (gpu.ClusterParams, error) {
		p, err := s.colocateParams(jobs)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		p.Tenants = p.Tenants[idx : idx+1]
		return p, nil
	})
}

// Colocate runs the heterogeneous co-location study on the cluster engine
// and prints per-job interference and attributed flash wear.
func Colocate(s *Session) ([]ColocateRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Co-location study: heterogeneous jobs sharing one SSD array ===")
	fmt.Fprintf(w, "%-34s %-14s %-10s %7s %7s %8s %10s %6s\n",
		"mix", "job", "policy", "co%", "solo%", "interf", "ssd-wr(GB)", "WA")

	// Each mix's co-simulation and its jobs' solo runs fan out together.
	var jobs []func() (gpu.ClusterResult, error)
	for _, mix := range colocateMixes {
		jobs = append(jobs, func() (gpu.ClusterResult, error) {
			return s.RunCluster("colo/"+mixName(mix), func() (gpu.ClusterParams, error) { return s.colocateParams(mix) })
		})
		for i := range mix {
			jobs = append(jobs, func() (gpu.ClusterResult, error) { return s.colocateSolo(mix, i) })
		}
	}
	res, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}

	var rows []ColocateRow
	for _, mix := range colocateMixes {
		name := mixName(mix)
		cres, solos := res[0], res[1:1+len(mix)]
		res = res[1+len(mix):]
		for i, job := range mix {
			co, solo := cres.Tenants[i], solos[i].Tenants[0]
			row := ColocateRow{
				Mix:        name,
				Model:      co.Model,
				Batch:      co.Batch,
				Policy:     job.Policy,
				Norm:       co.NormalizedPerf(),
				SoloNorm:   solo.NormalizedPerf(),
				SSDWriteGB: co.SSDStats.HostWriteBytes.GiB(),
				TenantWA:   co.WriteAmp,
				Failed:     co.Failed,
			}
			row.Interference = row.SoloNorm - row.Norm
			rows = append(rows, row)
			if row.Failed {
				fmt.Fprintf(w, "%-34s %-14s %-10s %7s\n", name, co.Model, job.Policy, "FAIL")
				continue
			}
			fmt.Fprintf(w, "%-34s %-14s %-10s %6.1f%% %6.1f%% %7.1fpp %10.1f %6.2f\n",
				name, co.Model, job.Policy, 100*row.Norm, 100*row.SoloNorm,
				100*row.Interference, row.SSDWriteGB, row.TenantWA)
		}
		fmt.Fprintf(w, "%-34s array WA %.2f, makespan %v\n", "", cres.WriteAmp, cres.Makespan)
	}
	return rows, nil
}
