package experiments

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/vitality"
)

// Fig19Row is one (model, error level) cell.
type Fig19Row struct {
	Model      string
	ErrPct     float64
	Normalized float64 // iteration time at 0% error / iteration time here
}

// Figure19 reproduces G10's robustness to kernel-timing prediction errors:
// the plan is derived from a trace with ±err% uniform noise per kernel, but
// execution replays the true durations. Performance is normalized to the
// no-error plan.
func Figure19(s *Session) ([]Fig19Row, error) {
	w := s.opt.writer()
	fmt.Fprintln(w, "=== Figure 19: G10 under kernel timing prediction errors (normalized to 0%) ===")
	errs := []float64{0, 0.05, 0.10, 0.15, 0.20}
	if s.opt.Short {
		errs = []float64{0, 0.20}
	}
	fmt.Fprintf(w, "%-14s", "model")
	for _, e := range errs {
		fmt.Fprintf(w, " %9.0f%%", 100*e)
	}
	fmt.Fprintln(w)

	// Every (model, error level) cell is an independent perturbed-plan run
	// (uncached — the execution trace differs from the plan's), so fan them
	// across the worker pool and print from the collected grid.
	mset := s.opt.modelSet()
	var jobs []func() (gpu.Result, error)
	for _, model := range mset {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		batch := s.batchFor(spec)
		for _, e := range errs {
			jobs = append(jobs, func() (gpu.Result, error) {
				aTrue, err := s.Analysis(model, batch)
				if err != nil {
					return gpu.Result{}, err
				}
				planAnalysis := aTrue
				if e > 0 {
					perturbed := aTrue.Trace.Perturb(e, 12345)
					planAnalysis, err = vitality.Analyze(aTrue.Graph, perturbed)
					if err != nil {
						return gpu.Result{}, err
					}
				}
				return s.runOne(planAnalysis, policy.G10Full(planner.Config{}), s.baseConfig(aTrue), aTrue.Trace)
			})
		}
	}
	grid, err := fanOut(s, jobs)
	if err != nil {
		return nil, err
	}

	var rows []Fig19Row
	for mi, model := range mset {
		var base float64
		fmt.Fprintf(w, "%-14s", model)
		for ei, e := range errs {
			secs := grid[mi*len(errs)+ei].IterationTime.Seconds()
			if e == 0 {
				base = secs
			}
			norm := 0.0
			if secs > 0 {
				norm = base / secs
			}
			rows = append(rows, Fig19Row{Model: model, ErrPct: 100 * e, Normalized: norm})
			fmt.Fprintf(w, " %9.3f", norm)
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}
