package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// plannerFingerprints pins the planner's output: a SHA-256 (first 16 hex
// digits) over each plan's decisions, its program's boundaries and one
// retimed program, per catalogue model × scope × G10 variant. G10-Host
// plans with G10's planner configuration, so their hashes agree.
var plannerFingerprints = map[string]string{
	"BERT/paper/G10":             "ead73697c1f476b7",
	"BERT/paper/G10-GDS":         "19602b0f4b642c07",
	"BERT/paper/G10-Host":        "ead73697c1f476b7",
	"BERT/short/G10":             "e233ec94ceeca100",
	"BERT/short/G10-GDS":         "bfcbcba6e93fc029",
	"BERT/short/G10-Host":        "e233ec94ceeca100",
	"ViT/paper/G10":              "7aee5940d4edf147",
	"ViT/paper/G10-GDS":          "04216f36823963db",
	"ViT/paper/G10-Host":         "7aee5940d4edf147",
	"ViT/short/G10":              "81ceed4f57a8cc33",
	"ViT/short/G10-GDS":          "ae67021653e9678a",
	"ViT/short/G10-Host":         "81ceed4f57a8cc33",
	"Inceptionv3/paper/G10":      "29b72e737450de79",
	"Inceptionv3/paper/G10-GDS":  "751b00759266e3cf",
	"Inceptionv3/paper/G10-Host": "29b72e737450de79",
	"Inceptionv3/short/G10":      "f1b4db00ce861155",
	"Inceptionv3/short/G10-GDS":  "b6961b90d1faa0b4",
	"Inceptionv3/short/G10-Host": "f1b4db00ce861155",
	"ResNet152/paper/G10":        "cf8fe0eebe65fd69",
	"ResNet152/paper/G10-GDS":    "5bf6b40eda4fbd35",
	"ResNet152/paper/G10-Host":   "cf8fe0eebe65fd69",
	"ResNet152/short/G10":        "a88834aa3a0574ef",
	"ResNet152/short/G10-GDS":    "d61e32b496c8c2c9",
	"ResNet152/short/G10-Host":   "a88834aa3a0574ef",
	"SENet154/paper/G10":         "afb50ca216fd387b",
	"SENet154/paper/G10-GDS":     "65f04508059e1e48",
	"SENet154/paper/G10-Host":    "afb50ca216fd387b",
	"SENet154/short/G10":         "89e8e4e8bdc1ef1b",
	"SENet154/short/G10-GDS":     "903acd2f8e1c0abd",
	"SENet154/short/G10-Host":    "89e8e4e8bdc1ef1b",
}

// TestPlannerFingerprints checks that the planner's decisions (tensor,
// target, boundaries and estimated times), the emitted program and a
// Retime of it stay bit-identical for every catalogue model at the paper
// and short batch under G10, G10-GDS and G10-Host. A refactor of the
// planner that moves any boundary or any estimated time fails it.
func TestPlannerFingerprints(t *testing.T) {
	s := NewSession(Options{})
	for _, model := range s.opt.modelSet() {
		spec, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []struct {
			name  string
			batch int
			cfg   func(*vitality.Analysis) gpu.Config
		}{
			{"paper", spec.PaperBatch, func(*vitality.Analysis) gpu.Config { return gpu.Default() }},
			{"short", shortBatch[model], scaledConfig},
		} {
			a, err := s.Analysis(model, sc.batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"G10", "G10-GDS", "G10-Host"} {
				pol, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				pol.(gpu.ProgramBuilder).Program(a, sc.cfg(a))
				key := model + "/" + sc.name + "/" + name
				got := planFingerprint(pol.(policy.Planner).Plan())
				if want := plannerFingerprints[key]; got != want {
					t.Errorf("%s: fingerprint %s, want %s", key, got, want)
				}
			}
		}
	}
}

// planFingerprint hashes a plan's decisions, its program and the program
// retimed by fixed factors.
func planFingerprint(p *planner.Plan) string {
	h := sha256.New()
	for _, d := range p.Decisions {
		fmt.Fprintf(h, "d %d %v %d %d %d %d %d\n", d.Period.Tensor.ID, d.Target,
			d.EvictBoundary, d.PrefetchBoundary, d.EvictDone, d.PrefetchStart, d.Deadline)
	}
	writeProgram := func(tag string, prog *planner.Program) {
		for b, list := range prog.Boundaries {
			for _, in := range list {
				fmt.Fprintf(h, "%s %d %v %d %v\n", tag, b, in.Kind, in.Tensor.ID, in.Target)
			}
		}
	}
	writeProgram("p", p.Program)
	writeProgram("r", p.Program.Retime(planner.Retiming{
		FetchInflation: 1.7, EvictInflation: 1.2, DeferEvictions: true,
	}))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
