package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// MultiGPURow is one cell of the §6 multi-GPU study, reporting the same
// (GPUs, SSDs) point under two models of sharing:
//
//   - Cosim: true co-simulation — G tenants on one cluster engine, one
//     clock, one flash array (shared FTL and GC), one host memory pool.
//     Tenants contend dynamically: bursty channel interference, GC noise
//     from a neighbour's writes, host-capacity stealing.
//   - Static: the legacy approximation — each GPU simulated alone with a
//     pre-divided S/G share of the array's bandwidth and 1/G of host
//     memory.
//
// The cosim−static delta is the contention dynamics a static split cannot
// capture — the new result of this study.
type MultiGPURow struct {
	Model string
	GPUs  int
	SSDs  int

	CosimPerGPUNorm  float64 // mean per-tenant normalized performance
	CosimAggregateEx float64 // summed tenant examples/sec

	StaticPerGPUNorm  float64
	StaticAggregateEx float64
}

// multiGPUCounts reports the (GPUs, SSDs) grid under the session's scope.
func (s *Session) multiGPUCounts() ([]int, []int) {
	if s.opt.Short {
		return []int{1, 4}, []int{1, 4}
	}
	return []int{1, 2, 4, 8}, []int{1, 2, 4, 8}
}

// multiGPUShared scales the base array to an s-drive aggregate
// (ssd.Config.Array); host memory is one shared pool — the cluster's
// capacity arbiter hands it out dynamically.
func multiGPUShared(cfg gpu.Config, ssds int) gpu.Config {
	cfg.SSD = cfg.SSD.Array(ssds)
	return cfg
}

// multiGPUStaticCfg is the legacy static-share model: with G GPUs and S
// SSDs each instance sees S/G of the array's bandwidth and capacity and
// 1/G of host memory.
func multiGPUStaticCfg(cfg gpu.Config, gpus, ssds int) gpu.Config {
	share := float64(ssds) / float64(gpus)
	cfg.SSD.ReadBandwidth = units.Bandwidth(float64(cfg.SSD.ReadBandwidth) * share)
	cfg.SSD.WriteBandwidth = units.Bandwidth(float64(cfg.SSD.WriteBandwidth) * share)
	cfg.SSD.Capacity = units.Bytes(float64(cfg.SSD.Capacity) * share)
	cfg.HostCapacity = units.Bytes(float64(cfg.HostCapacity) / float64(gpus))
	return cfg
}

// multiGPUClusterParams assembles the G-tenant co-simulation of one cell.
func (s *Session) multiGPUClusterParams(a *vitality.Analysis, gpus, ssds int) (gpu.ClusterParams, error) {
	base := s.baseConfig(a)
	tenants := make([]gpu.ClusterTenant, gpus)
	for i := range tenants {
		pol, err := NewPolicy("G10")
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		tenants[i] = gpu.ClusterTenant{Analysis: a, Policy: pol, Config: base}
	}
	return gpu.ClusterParams{Tenants: tenants, Shared: multiGPUShared(base, ssds)}, nil
}

// multiGPUCell runs (or returns the cached) co-simulation for one cell.
func (s *Session) multiGPUCell(model string, batch, gpus, ssds int) (gpu.ClusterResult, error) {
	key := fmt.Sprintf("mg-cosim/%s/%d/%dx%d", model, batch, gpus, ssds)
	return s.RunCluster(key, func() (gpu.ClusterParams, error) {
		a, err := s.Analysis(model, batch)
		if err != nil {
			return gpu.ClusterParams{}, err
		}
		return s.multiGPUClusterParams(a, gpus, ssds)
	})
}

// MultiGPU implements the paper's §6 extension sketch — multiple GPUs, each
// running its own G10 instance, sharing one flash array — as a true
// co-simulation on the cluster engine, with the legacy static-share numbers
// kept as the comparison column. The sweep reports per-GPU normalized
// performance and aggregate throughput as GPUs and SSDs scale.
func MultiGPU(s *Session) ([]MultiGPURow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== §6 extension: multi-GPU sharing an SSD array (G10, per-GPU % of ideal) ===")
	fmt.Fprintln(w, "cosim: true shared-device co-simulation; static: legacy pre-divided bandwidth")
	gpuCounts, ssdCounts := s.multiGPUCounts()

	// Every grid point runs twice, both in the pool: the G-tenant
	// co-simulation, then one GPU alone under the static split. Each job
	// returns its tenants' results.
	mset := s.opt.modelSet()
	batches := make([]int, len(mset))
	var jobs []func() ([]gpu.Result, error)
	for mi, model := range mset {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		batch := s.batchFor(spec)
		batches[mi] = batch
		for _, gpus := range gpuCounts {
			for _, ssds := range ssdCounts {
				jobs = append(jobs, func() ([]gpu.Result, error) {
					cres, err := s.multiGPUCell(model, batch, gpus, ssds)
					return cres.Tenants, err
				})
				jobs = append(jobs, func() ([]gpu.Result, error) {
					a, err := s.Analysis(model, batch)
					if err != nil {
						return nil, err
					}
					static, err := s.Run(model, batch, "G10", multiGPUStaticCfg(s.baseConfig(a), gpus, ssds))
					return []gpu.Result{static}, err
				})
			}
		}
	}
	res, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}

	var rows []MultiGPURow
	for mi, model := range mset {
		fmt.Fprintf(w, "\n%s-%d (rows: GPUs, cols: SSDs %v; cosim%% / static%%):\n", model, batches[mi], ssdCounts)
		for _, gpus := range gpuCounts {
			fmt.Fprintf(w, "%4d", gpus)
			for _, ssds := range ssdCounts {
				cosim, static := res[0], res[1][0]
				res = res[2:]
				var norm, aggr float64
				for _, tr := range cosim {
					norm += tr.NormalizedPerf()
					aggr += tr.Throughput()
				}
				norm /= float64(len(cosim))
				row := MultiGPURow{
					Model: model, GPUs: gpus, SSDs: ssds,
					CosimPerGPUNorm:   norm,
					CosimAggregateEx:  aggr,
					StaticPerGPUNorm:  static.NormalizedPerf(),
					StaticAggregateEx: float64(gpus) * static.Throughput(),
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "  %5.1f/%5.1f", 100*row.CosimPerGPUNorm, 100*row.StaticPerGPUNorm)
			}
			fmt.Fprintln(w)
		}
	}
	return rows, nil
}
