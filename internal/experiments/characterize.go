package experiments

import (
	"fmt"

	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// characterizationModels are Fig. 2–4's (model, batch) pairs.
var characterizationModels = []struct {
	Model string
	Batch int
}{
	{"BERT", 128},
	{"ViT", 512},
	{"ResNet152", 512},
	{"Inceptionv3", 512},
}

func (s *Session) characterizationBatch(model string, batch int) int {
	if s.opt.Short {
		return shortBatch[model]
	}
	return batch
}

// characterization builds the Fig. 2–4 analyses across the worker pool, in
// characterizationModels order.
func (s *Session) characterization() ([]*vitality.Analysis, error) {
	var jobs []func() (*vitality.Analysis, error)
	for _, cm := range characterizationModels {
		jobs = append(jobs, func() (*vitality.Analysis, error) {
			return s.Analysis(cm.Model, s.characterizationBatch(cm.Model, cm.Batch))
		})
	}
	return fanOut(s, jobs)
}

// Fig2Row is one sampled point of the memory-consumption curves.
type Fig2Row struct {
	Model       string
	KernelIndex int
	AllPct      float64 // alive bytes / peak alive, percent
	ActivePct   float64 // active bytes / peak alive, percent
}

// Figure2 reproduces the memory consumption of all vs active tensors
// (w.r.t. peak consumption) over kernel index.
func Figure2(s *Session) ([]Fig2Row, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 2: memory consumption of all and active tensors (% of peak) ===")
	as, err := s.characterization()
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for i, cm := range characterizationModels {
		a, batch := as[i], s.characterizationBatch(cm.Model, cm.Batch)
		peak := float64(a.PeakAlive())
		n := len(a.AliveBytes)
		step := n / 16
		if step == 0 {
			step = 1
		}
		fmt.Fprintf(w, "\n%s-%d (%d kernels, peak %v):\n  kernel     all%%   active%%\n", cm.Model, batch, n, a.PeakAlive())
		for k := 0; k < n; k += step {
			row := Fig2Row{
				Model:       cm.Model,
				KernelIndex: k,
				AllPct:      100 * float64(a.AliveBytes[k]) / peak,
				ActivePct:   100 * float64(a.ActiveBytes[k]) / peak,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "  %6d  %6.1f%%  %7.2f%%\n", k, row.AllPct, row.ActivePct)
		}
	}
	return rows, nil
}

// Fig3Row summarises one model's inactive-period length distribution.
type Fig3Row struct {
	Model   string
	Periods int
	// Percentile durations in microseconds at 10%..90%.
	P10, P50, P90 float64
	// FracAbove1ms/FracAbove100ms echo the paper's observation O2.
	FracAbove1ms   float64
	FracAbove100ms float64
}

// Figure3 reproduces the distribution of tensor inactive-period lengths.
func Figure3(s *Session) ([]Fig3Row, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 3: inactive period length distribution (µs) ===")
	as, err := s.characterization()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %8s %8s\n", "model", "periods", "p10", "p50", "p90", ">1ms", ">100ms")
	var rows []Fig3Row
	for i, cm := range characterizationModels {
		a, batch := as[i], s.characterizationBatch(cm.Model, cm.Batch)
		var durs []float64
		var over1ms, over100ms int
		for i := range a.Periods {
			d := a.Periods[i].Duration()
			durs = append(durs, d.Micros())
			if d > units.Millisecond {
				over1ms++
			}
			if d > 100*units.Millisecond {
				over100ms++
			}
		}
		sorted := sortedCopy(durs)
		row := Fig3Row{
			Model:          cm.Model,
			Periods:        len(durs),
			P10:            percentile(sorted, 0.10),
			P50:            percentile(sorted, 0.50),
			P90:            percentile(sorted, 0.90),
			FracAbove1ms:   frac(over1ms, len(durs)),
			FracAbove100ms: frac(over100ms, len(durs)),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-14s %8d %10.1f %10.1f %10.1f %7.1f%% %7.1f%%\n",
			fmt.Sprintf("%s-%d", cm.Model, batch), row.Periods, row.P10, row.P50, row.P90,
			100*row.FracAbove1ms, 100*row.FracAbove100ms)
	}
	return rows, nil
}

// Fig4Row is one (size bucket × duration) summary of the scatter plot.
type Fig4Row struct {
	Model       string
	SizeBucket  string
	Periods     int
	MedianMicro float64
}

// Figure4 reproduces the joint distribution of inactive period length and
// tensor size, bucketed by size decade.
func Figure4(s *Session) ([]Fig4Row, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 4: inactive periods by tensor size (median µs per size decade) ===")
	as, err := s.characterization()
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for i, cm := range characterizationModels {
		a, batch := as[i], s.characterizationBatch(cm.Model, cm.Batch)
		buckets := map[int][]float64{}
		for i := range a.Periods {
			p := &a.Periods[i]
			decade := 0
			for sz := p.Tensor.Size; sz >= 10; sz /= 10 {
				decade++
			}
			buckets[decade] = append(buckets[decade], p.Duration().Micros())
		}
		var decades []int
		for d := range buckets {
			decades = append(decades, d)
		}
		sortInts(decades)
		fmt.Fprintf(w, "\n%s-%d:\n", cm.Model, batch)
		for _, d := range decades {
			sorted := sortedCopy(buckets[d])
			row := Fig4Row{
				Model:       cm.Model,
				SizeBucket:  fmt.Sprintf("1e%d-1e%dB", d, d+1),
				Periods:     len(sorted),
				MedianMicro: percentile(sorted, 0.5),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "  size %-12s: %5d periods, median %12.1f µs\n", row.SizeBucket, row.Periods, row.MedianMicro)
		}
	}
	return rows, nil
}

func frac(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
