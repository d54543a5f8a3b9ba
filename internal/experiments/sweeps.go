package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// SweepRow is one point of a parameter sweep.
type SweepRow struct {
	Model  string
	Batch  int
	Policy string
	// X is the swept parameter (batch size, host GB, or SSD GB/s).
	X      float64
	Result gpu.Result
}

// batchSweep reports the batch sizes to sweep for a model.
func (s *Session) batchSweep(spec models.Spec) []int {
	if s.opt.Short {
		b := shortBatch[spec.Name]
		return []int{b / 2, b}
	}
	return spec.BatchSweep
}

// sweepJob runs one sweep cell: the row's model, batch and policy under
// the config cfg derives from the workload's analysis, filling row.Result.
func (s *Session) sweepJob(row SweepRow, cfg func(*vitality.Analysis) gpu.Config) func() (SweepRow, error) {
	return func() (SweepRow, error) {
		a, err := s.Analysis(row.Model, row.Batch)
		if err != nil {
			return row, err
		}
		row.Result, err = s.Run(row.Model, row.Batch, row.Policy, cfg(a))
		return row, err
	}
}

// Figure15 reproduces training throughput (examples/sec) as batch size
// varies, for each design and the Ideal bound.
func Figure15(s *Session) ([]SweepRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 15: training throughput vs batch size (examples/sec) ===")
	policies := []string{"Base UVM", "FlashNeuron", "DeepUM+", "G10", "Ideal"}
	mset := s.opt.modelSet()
	sweeps := make([][]int, len(mset))
	var jobs []func() (SweepRow, error)
	for mi, model := range mset {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		sweeps[mi] = s.batchSweep(spec)
		for _, batch := range sweeps[mi] {
			for _, p := range policies {
				jobs = append(jobs, s.sweepJob(SweepRow{Model: model, Batch: batch, Policy: p, X: float64(batch)}, s.baseConfig))
			}
		}
	}
	rows, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for mi, model := range mset {
		fmt.Fprintf(w, "\n%s:\n%-8s", model, "batch")
		for _, p := range policies {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, batch := range sweeps[mi] {
			fmt.Fprintf(w, "%-8d", batch)
			for range policies {
				res := rows[i].Result
				i++
				if res.Failed {
					fmt.Fprintf(w, " %12s", "FAIL")
				} else {
					fmt.Fprintf(w, " %12.2f", res.Throughput())
				}
			}
			fmt.Fprintln(w)
		}
	}
	return rows, nil
}

// hostSweep reports the host-memory capacities of Figures 16–17.
func (s *Session) hostSweep(a interface{ PeakAlive() units.Bytes }) []units.Bytes {
	if s.opt.Short {
		base := a.PeakAlive()
		return []units.Bytes{0, base / 4, base}
	}
	return []units.Bytes{0, 32 * units.GB, 64 * units.GB, 128 * units.GB, 256 * units.GB}
}

// hostConfig derives the base config with host memory set to host.
func (s *Session) hostConfig(host units.Bytes) func(*vitality.Analysis) gpu.Config {
	return func(a *vitality.Analysis) gpu.Config {
		cfg := s.baseConfig(a)
		cfg.HostCapacity = host
		return cfg
	}
}

// Figure16 reproduces G10's execution time as host memory capacity varies,
// for several batch sizes per model.
func Figure16(s *Session) ([]SweepRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 16: G10 execution time (s) vs host memory capacity ===")
	// Each model's host sweep derives from its largest batch's analysis, so
	// those analyses build first, across the pool.
	mset := s.opt.modelSet()
	sweeps := make([][]int, len(mset))
	var refJobs []func() (*vitality.Analysis, error)
	for mi, model := range mset {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		batches := s.batchSweep(spec)
		if len(batches) > 4 {
			batches = batches[len(batches)-4:]
		}
		sweeps[mi] = batches
		refJobs = append(refJobs, func() (*vitality.Analysis, error) {
			return s.Analysis(model, batches[len(batches)-1])
		})
	}
	refs, err := fanOut(s, refJobs)
	if err != nil {
		return nil, err
	}
	hosts := make([][]units.Bytes, len(mset))
	var jobs []func() (SweepRow, error)
	for mi, model := range mset {
		hosts[mi] = s.hostSweep(refs[mi])
		for _, host := range hosts[mi] {
			for _, batch := range sweeps[mi] {
				row := SweepRow{Model: model, Batch: batch, Policy: "G10", X: host.GiB()}
				jobs = append(jobs, s.sweepJob(row, s.hostConfig(host)))
			}
		}
	}
	rows, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for mi, model := range mset {
		fmt.Fprintf(w, "\n%s (rows: host GB, cols: batch %v):\n", model, sweeps[mi])
		for _, host := range hosts[mi] {
			fmt.Fprintf(w, "%8.0f", host.GiB())
			for range sweeps[mi] {
				fmt.Fprintf(w, " %10.2f", rows[i].Result.IterationTime.Seconds())
				i++
			}
			fmt.Fprintln(w)
		}
	}
	return rows, nil
}

// fig17Workloads are the two representative models of Figure 17.
var fig17Workloads = []struct {
	Model string
	Batch int
}{
	{"ViT", 1024},
	{"Inceptionv3", 1280},
}

// Figure17 compares G10, DeepUM+, and FlashNeuron as host memory varies.
func Figure17(s *Session) ([]SweepRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 17: execution time (s) vs host memory, by policy ===")
	policies := []string{"DeepUM+", "FlashNeuron", "G10"}
	// The host sweep derives from each workload's analysis, so both build
	// first, across the pool.
	batches := make([]int, len(fig17Workloads))
	var refJobs []func() (*vitality.Analysis, error)
	for wi, wl := range fig17Workloads {
		batch := wl.Batch
		if s.opt.Short {
			batch = shortBatch[wl.Model]
		}
		batches[wi] = batch
		refJobs = append(refJobs, func() (*vitality.Analysis, error) { return s.Analysis(wl.Model, batch) })
	}
	refs, err := fanOut(s, refJobs)
	if err != nil {
		return nil, err
	}
	hosts := make([][]units.Bytes, len(fig17Workloads))
	var jobs []func() (SweepRow, error)
	for wi, wl := range fig17Workloads {
		hosts[wi] = s.hostSweep(refs[wi])
		for _, host := range hosts[wi] {
			for _, p := range policies {
				row := SweepRow{Model: wl.Model, Batch: batches[wi], Policy: p, X: host.GiB()}
				jobs = append(jobs, s.sweepJob(row, s.hostConfig(host)))
			}
		}
	}
	rows, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for wi, wl := range fig17Workloads {
		fmt.Fprintf(w, "\n%s-%d:\n%-8s", wl.Model, batches[wi], "hostGB")
		for _, p := range policies {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, host := range hosts[wi] {
			fmt.Fprintf(w, "%-8.0f", host.GiB())
			for range policies {
				res := rows[i].Result
				i++
				if res.Failed {
					fmt.Fprintf(w, " %12s", "FAIL")
				} else {
					fmt.Fprintf(w, " %12.2f", res.IterationTime.Seconds())
				}
			}
			fmt.Fprintln(w)
		}
	}
	return rows, nil
}

// Figure18 reproduces normalized performance as the SSD bandwidth scales
// (stacking SSDs), with the interconnect upgraded to PCIe 4.0 ×16.
func Figure18(s *Session) ([]SweepRow, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 18: normalized performance vs SSD bandwidth (PCIe 4.0 x16) ===")
	policies := []string{"Base UVM", "FlashNeuron", "DeepUM+", "G10"}
	bandwidths := []float64{6.4, 12.8, 19.2, 25.6, 32.0}
	if s.opt.Short {
		bandwidths = []float64{6.4, 32.0}
	}
	fig18Cfg := func(bw float64) func(*vitality.Analysis) gpu.Config {
		return func(a *vitality.Analysis) gpu.Config {
			cfg := s.baseConfig(a)
			cfg.PCIeBandwidth = units.GBps(32)
			ssdCfg := cfg.SSD
			ssdCfg.ReadBandwidth = units.GBps(bw)
			ssdCfg.WriteBandwidth = units.GBps(bw * 3.0 / 3.2)
			cfg.SSD = ssdCfg
			return cfg
		}
	}
	mset := s.opt.modelSet()
	batches := make([]int, len(mset))
	var jobs []func() (SweepRow, error)
	for mi, model := range mset {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		batches[mi] = s.batchFor(spec)
		if !s.opt.Short && spec.Name == "BERT" {
			batches[mi] = 512 // the paper uses BERT-512 in this sweep
		}
		for _, bw := range bandwidths {
			for _, p := range policies {
				row := SweepRow{Model: model, Batch: batches[mi], Policy: p, X: bw}
				jobs = append(jobs, s.sweepJob(row, fig18Cfg(bw)))
			}
		}
	}
	rows, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for mi, model := range mset {
		fmt.Fprintf(w, "\n%s-%d:\n%-8s", model, batches[mi], "GB/s")
		for _, p := range policies {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, bw := range bandwidths {
			fmt.Fprintf(w, "%-8.1f", bw)
			for range policies {
				res := rows[i].Result
				i++
				if res.Failed {
					fmt.Fprintf(w, " %12s", "FAIL")
				} else {
					fmt.Fprintf(w, " %11.1f%%", 100*res.NormalizedPerf())
				}
			}
			fmt.Fprintln(w)
		}
	}
	return rows, nil
}
