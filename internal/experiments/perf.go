package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/units"
)

// PerfRow is one (model, policy) cell of Figures 11–14.
type PerfRow struct {
	Model  string
	Batch  int
	Policy string
	Result gpu.Result
}

// runMatrix simulates every model × policy combination of the end-to-end
// evaluation across the worker pool, reusing the session cache. Rows come
// back in model-major order.
func (s *Session) runMatrix(policies []string) ([]PerfRow, error) {
	var jobs []func() (PerfRow, error)
	for _, model := range s.opt.modelSet() {
		for _, pol := range policies {
			jobs = append(jobs, func() (PerfRow, error) {
				res, err := s.RunBase(model, pol)
				return PerfRow{Model: model, Batch: res.Batch, Policy: pol, Result: res}, err
			})
		}
	}
	return fanOut(s, jobs)
}

// Figure11 reproduces the end-to-end training throughput, normalized to the
// Ideal (infinite GPU memory) baseline.
func Figure11(s *Session) ([]PerfRow, error) {
	w := s.opt.writer()
	policies := append([]string{"Ideal"}, PolicyNames...)
	rows, err := s.runMatrix(policies)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "=== Figure 11: normalized training performance (1.0 = Ideal) ===")
	fmt.Fprintf(w, "%-14s", "model")
	for _, p := range PolicyNames {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	var g10Sum float64
	var g10N int
	for i := 0; i < len(rows); i += len(policies) {
		fmt.Fprintf(w, "%-14s", rows[i].Model)
		for _, r := range rows[i+1 : i+len(policies)] { // the Ideal column is not printed
			if r.Result.Failed {
				fmt.Fprintf(w, " %12s", "FAIL")
				continue
			}
			fmt.Fprintf(w, " %11.1f%%", 100*r.Result.NormalizedPerf())
			if r.Policy == "G10" {
				g10Sum += r.Result.NormalizedPerf()
				g10N++
			}
		}
		fmt.Fprintln(w)
	}
	if g10N > 0 {
		fmt.Fprintf(w, "\nG10 mean of ideal: %.1f%% (paper: 90.3%%)\n", 100*g10Sum/float64(g10N))
	}
	return rows, nil
}

// Figure12 reproduces the execution-time breakdown: the fraction of
// iteration time where compute and transfers overlap versus compute stall.
func Figure12(s *Session) ([]PerfRow, error) {
	w := s.opt.writer()
	rows, err := s.runMatrix([]string{"Base UVM", "FlashNeuron", "DeepUM+", "G10"})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "=== Figure 12: execution time breakdown (compute&transfer %% / stall %%) ===")
	fmt.Fprintf(w, "%-14s %-12s %12s %10s\n", "model", "policy", "overlapped", "stall")
	for _, r := range rows {
		res := r.Result
		if res.Failed {
			fmt.Fprintf(w, "%-14s %-12s %12s\n", r.Model, r.Policy, "FAIL")
			continue
		}
		stall := float64(res.StallTime) / float64(res.IterationTime)
		fmt.Fprintf(w, "%-14s %-12s %11.1f%% %9.1f%%\n", r.Model, r.Policy, 100*(1-stall), 100*stall)
	}
	return rows, nil
}

// Fig13Row summarises one kernel-slowdown distribution.
type Fig13Row struct {
	Model, Policy       string
	P50, P90, P99, Max  float64
	FracSlowed          float64 // kernels slowed >5% vs ideal
	FracSlowedBeyondTwo float64
	Kernels             int
}

// Figure13 reproduces the distribution of per-kernel execution slowdowns
// versus the ideal trace.
func Figure13(s *Session) ([]Fig13Row, error) {
	w := s.opt.writer()
	rows, err := s.runMatrix([]string{"Base UVM", "FlashNeuron", "DeepUM+", "G10"})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "=== Figure 13: kernel slowdown distribution (vs ideal; lower is better) ===")
	fmt.Fprintf(w, "%-14s %-12s %8s %8s %8s %8s %9s %8s\n", "model", "policy", "p50", "p90", "p99", "max", "slowed", ">2x")
	var out []Fig13Row
	for _, r := range rows {
		if r.Result.Failed {
			fmt.Fprintf(w, "%-14s %-12s %8s\n", r.Model, r.Policy, "FAIL")
			continue
		}
		a, err := s.Analysis(r.Model, r.Batch)
		if err != nil {
			return nil, err
		}
		cdf := gpu.SlowdownCDF(r.Result, a.Trace)
		var slowed, beyond2 int
		for _, v := range cdf {
			if v > 1.05 {
				slowed++
			}
			if v > 2 {
				beyond2++
			}
		}
		row := Fig13Row{
			Model: r.Model, Policy: r.Policy,
			P50: percentile(cdf, 0.50), P90: percentile(cdf, 0.90),
			P99: percentile(cdf, 0.99), Max: percentile(cdf, 1.0),
			FracSlowed:          frac(slowed, len(cdf)),
			FracSlowedBeyondTwo: frac(beyond2, len(cdf)),
			Kernels:             len(cdf),
		}
		out = append(out, row)
		fmt.Fprintf(w, "%-14s %-12s %8.2f %8.2f %8.2f %8.1f %8.1f%% %7.1f%%\n",
			r.Model, r.Policy, row.P50, row.P90, row.P99, row.Max, 100*row.FracSlowed, 100*row.FracSlowedBeyondTwo)
	}
	return out, nil
}

// Figure14 reproduces the tensor migration traffic breakdown by channel.
func Figure14(s *Session) ([]PerfRow, error) {
	w := s.opt.writer()
	rows, err := s.runMatrix([]string{"Base UVM", "FlashNeuron", "DeepUM+", "G10"})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "=== Figure 14: migration traffic per iteration (GB) ===")
	fmt.Fprintf(w, "%-14s %-12s %10s %10s %10s %10s %10s\n",
		"model", "policy", "gpu->ssd", "ssd->gpu", "gpu->host", "host->gpu", "total")
	for _, r := range rows {
		res := r.Result
		if res.Failed {
			fmt.Fprintf(w, "%-14s %-12s %10s\n", r.Model, r.Policy, "FAIL")
			continue
		}
		fmt.Fprintf(w, "%-14s %-12s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			r.Model, r.Policy, res.GPUToSSD.GiB(), res.SSDToGPU.GiB(),
			res.GPUToHost.GiB(), res.HostToGPU.GiB(), res.TotalTraffic().GiB())
	}
	return rows, nil
}

// SSDLifetimeRow is one §7.7 lifetime table entry.
type SSDLifetimeRow struct {
	Model, Policy string
	WriteGB       float64
	WriteShare    float64 // writes / (reads+writes) on the SSD
	WriteAmp      float64
	LifetimeYears float64
}

// SSDLifetime reproduces §7.7: the flash write traffic of each design and
// the DWPD lifetime it implies at the measured write rate.
func SSDLifetime(s *Session) ([]SSDLifetimeRow, error) {
	w := s.opt.writer()
	rows, err := s.runMatrix([]string{"Base UVM", "FlashNeuron", "DeepUM+", "G10"})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "=== §7.7: SSD write traffic and lifetime ===")
	fmt.Fprintf(w, "%-14s %-12s %12s %10s %6s %10s\n", "model", "policy", "writes(GB)", "write-frac", "WA", "life(yrs)")
	var out []SSDLifetimeRow
	for _, r := range rows {
		res := r.Result
		if res.Failed {
			fmt.Fprintf(w, "%-14s %-12s %12s\n", r.Model, r.Policy, "FAIL")
			continue
		}
		total := res.GPUToSSD + res.SSDToGPU
		var share float64
		if total > 0 {
			share = float64(res.GPUToSSD) / float64(total)
		}
		var rate units.Bandwidth
		if res.IterationTime > 0 {
			rate = units.Bandwidth(float64(res.GPUToSSD) / res.IterationTime.Seconds())
		}
		a, err := s.Analysis(r.Model, r.Batch)
		if err != nil {
			return nil, err
		}
		cfg := s.baseConfig(a)
		row := SSDLifetimeRow{
			Model: r.Model, Policy: r.Policy,
			WriteGB:       res.GPUToSSD.GiB(),
			WriteShare:    share,
			WriteAmp:      res.WriteAmp,
			LifetimeYears: cfg.SSD.LifetimeYears(rate),
		}
		out = append(out, row)
		life := fmt.Sprintf("%10.1f", row.LifetimeYears)
		if rate == 0 {
			life = "       inf"
		}
		fmt.Fprintf(w, "%-14s %-12s %12.1f %9.1f%% %6.2f %s\n",
			r.Model, r.Policy, row.WriteGB, 100*row.WriteShare, row.WriteAmp, life)
	}
	return out, nil
}
