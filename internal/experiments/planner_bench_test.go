package experiments

import (
	"testing"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/vitality"
)

// BenchmarkPlanner measures the migration planner (Algorithm 1, eager
// prefetch scheduling, and program emission) per catalogue model, on the
// planning problems the figures pose: the paper batch against the Table 2
// system (Figure 11) and the short batch against its scaled slice (the
// fleet figure). Each op plans through an unattached G10 policy, so the
// effective planner configuration is derived exactly as in a simulation.
// decisions/op is the plan's eviction/prefetch pair count, an exact work
// measure that does not vary between runs.
func BenchmarkPlanner(b *testing.B) {
	s := NewSession(Options{})
	for _, model := range s.opt.modelSet() {
		spec, err := models.ByName(model)
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range []struct {
			name  string
			batch int
			cfg   func(*vitality.Analysis) gpu.Config
		}{
			{"paper", spec.PaperBatch, func(*vitality.Analysis) gpu.Config { return gpu.Default() }},
			{"short", shortBatch[model], scaledConfig},
		} {
			b.Run(model+"/"+sc.name, func(b *testing.B) {
				a, err := s.Analysis(model, sc.batch)
				if err != nil {
					b.Fatal(err)
				}
				cfg := sc.cfg(a)
				var decisions int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol := policy.G10Full(planner.Config{})
					pol.(gpu.ProgramBuilder).Program(a, cfg)
					decisions = len(pol.(policy.Planner).Plan().Decisions)
				}
				b.ReportMetric(float64(decisions), "decisions/op")
			})
		}
	}
}
