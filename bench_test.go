// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. One
// benchmark iteration regenerates one full figure at the paper's scale
// (models, batch sizes, Table 2 system); a session cache inside each
// benchmark makes b.N > 1 iterations cheap.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=Figure11.
package g10sim

import (
	"fmt"
	"testing"

	"g10sim/internal/experiments"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

func benchFigure[T any](b *testing.B, f func(*experiments.Session) ([]T, error), modelSubset ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// A fresh session per iteration keeps ns/op honest: the session
		// caches runs, so reusing one would make iterations 2+ nearly free.
		s := experiments.NewSession(experiments.Options{Models: modelSubset})
		if _, err := f(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3 characterisation ---

func BenchmarkFigure2Characterization(b *testing.B) { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3InactivePeriods(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4SizeVsDuration(b *testing.B)   { benchFigure(b, experiments.Figure4) }

// --- §7 end-to-end evaluation (Table 2 system, paper batch sizes) ---

func BenchmarkFigure11EndToEnd(b *testing.B)       { benchFigure(b, experiments.Figure11) }
func BenchmarkFigure12Breakdown(b *testing.B)      { benchFigure(b, experiments.Figure12) }
func BenchmarkFigure13KernelSlowdown(b *testing.B) { benchFigure(b, experiments.Figure13) }
func BenchmarkFigure14Traffic(b *testing.B)        { benchFigure(b, experiments.Figure14) }
func BenchmarkFigure15BatchSweep(b *testing.B)     { benchFigure(b, experiments.Figure15) }
func BenchmarkFigure16HostMemory(b *testing.B)     { benchFigure(b, experiments.Figure16) }
func BenchmarkFigure17HostPolicies(b *testing.B)   { benchFigure(b, experiments.Figure17) }
func BenchmarkFigure18SSDBandwidth(b *testing.B)   { benchFigure(b, experiments.Figure18) }
func BenchmarkFigure19ProfilingError(b *testing.B) { benchFigure(b, experiments.Figure19) }
func BenchmarkSSDLifetime(b *testing.B)            { benchFigure(b, experiments.SSDLifetime) }

// --- component benchmarks ---
//
// The planner's per-model benchmarks (BenchmarkPlanner/<model>/{paper,short})
// live in internal/experiments, next to the figure configurations they plan
// against.

// BenchmarkVitalityAnalysis measures §4.2 alone.
func BenchmarkVitalityAnalysis(b *testing.B) {
	spec, err := models.ByName("ResNet152")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build(spec.PaperBatch)
	tr := profile.Profile(g, profile.A100(spec.TimeScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vitality.Analyze(g, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphConstruction measures the model zoo builders.
func BenchmarkGraphConstruction(b *testing.B) {
	for _, name := range models.Names() {
		spec, _ := models.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec.Build(spec.PaperBatch)
			}
		})
	}
}

// BenchmarkSimulateG10 measures one full runtime simulation.
func BenchmarkSimulateG10(b *testing.B) {
	w, err := BuildModel("ResNet152", 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Simulate(w, "G10", cfg)
		if err != nil || rep.Failed {
			b.Fatalf("%v %v", err, rep.FailReason)
		}
	}
}

// --- ablation benches (DESIGN.md §5) ---

// ablationConfig is a mid-pressure BERT scenario shared by the ablations.
func ablationAnalysis(b *testing.B) *vitality.Analysis {
	b.Helper()
	spec, err := models.ByName("BERT")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build(spec.PaperBatch)
	tr := profile.Profile(g, profile.A100(spec.TimeScale))
	return vitality.MustAnalyze(g, tr)
}

// BenchmarkAblationHostSpill contrasts the planner with and without the
// host-memory destination (G10 vs G10-GDS in Fig. 11): the report lines
// show the planned peak pressure each achieves.
func BenchmarkAblationHostSpill(b *testing.B) {
	a := ablationAnalysis(b)
	for _, useHost := range []bool{true, false} {
		name := "ssd-only"
		if useHost {
			name = "host+ssd"
		}
		b.Run(name, func(b *testing.B) {
			cfg := planner.Default()
			cfg.UseHost = useHost
			var residual units.Bytes
			for i := 0; i < b.N; i++ {
				residual = planner.New(a, cfg).ResidualOverflow
			}
			b.ReportMetric(residual.GiB(), "residual-GB")
		})
	}
}

// BenchmarkAblationCandidateRanking contrasts Algorithm 1's benefit/cost
// ranking against a naive largest-tensor-first eviction order, measuring
// residual pressure after the same number of decisions.
func BenchmarkAblationCandidateRanking(b *testing.B) {
	a := ablationAnalysis(b)
	// Benefit/cost ranking (the paper's Algorithm 1).
	b.Run("benefit-cost", func(b *testing.B) {
		var traffic units.Bytes
		for i := 0; i < b.N; i++ {
			p := planner.New(a, planner.Default())
			traffic = p.PlannedSSDBytes + p.PlannedHostBytes
		}
		b.ReportMetric(traffic.GiB(), "planned-GB")
	})
	// Degenerate ranking: an (almost) zero-capacity GPU forces the
	// scheduler to take every candidate, approximating unranked greedy
	// selection; the extra planned traffic is the cost of not ranking.
	b.Run("take-everything", func(b *testing.B) {
		cfg := planner.Default()
		cfg.GPUCapacity = a.PeakActive() + units.GB
		var traffic units.Bytes
		for i := 0; i < b.N; i++ {
			p := planner.New(a, cfg)
			traffic = p.PlannedSSDBytes + p.PlannedHostBytes
		}
		b.ReportMetric(traffic.GiB(), "planned-GB")
	})
}

// BenchmarkAblationEagerPrefetch quantifies §4.4's eager prefetching: the
// fraction of prefetches the scheduler managed to move earlier than their
// latest-safe boundary (what makes Fig. 19 flat).
func BenchmarkAblationEagerPrefetch(b *testing.B) {
	a := ablationAnalysis(b)
	var moved, total int
	for i := 0; i < b.N; i++ {
		p := planner.New(a, planner.Default())
		moved, total = 0, 0
		for _, d := range p.Decisions {
			total++
			latest := d.Period.NextUse
			if d.PrefetchBoundary < latest-1 {
				moved++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(moved)/float64(total), "%-moved-earlier")
	}
}

// BenchmarkAblationGCOverprovision measures sustained write amplification
// at different SSD overprovisioning ratios under fragmented churn.
func BenchmarkAblationGCOverprovision(b *testing.B) {
	for _, op := range []float64{0.07, 0.15, 0.30} {
		b.Run(opName(op), func(b *testing.B) {
			var wa float64
			for i := 0; i < b.N; i++ {
				wa = churnWA(b, op)
			}
			b.ReportMetric(wa, "write-amp")
		})
	}
}

func opName(op float64) string { return fmt.Sprintf("op=%.0f%%", op*100) }

func churnWA(b *testing.B, op float64) float64 {
	b.Helper()
	cfg := benchSSDConfig()
	cfg.OverProvision = op
	dev, err := benchSSDNew(cfg)
	if err != nil {
		b.Fatal(err)
	}
	logical := int64(cfg.Capacity / cfg.PageSize)
	n := logical * 9 / 10
	r, err := dev.Alloc(n)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Write(r); err != nil {
		b.Fatal(err)
	}
	// Deterministic fragmented overwrites.
	state := int64(12345)
	for i := int64(0); i < 8*n/16; i++ {
		state = (state*6364136223846793005 + 1442695040888963407) % (n - 16)
		off := state
		if off < 0 {
			off = -off
		}
		if _, err := dev.Write(benchRange(r.Start+off%(n-16), 16)); err != nil {
			b.Fatal(err)
		}
	}
	return dev.WriteAmplification()
}

// BenchmarkMultiGPU regenerates the §6 multi-GPU extension study
// (co-simulation plus the legacy static-share comparison).
func BenchmarkMultiGPU(b *testing.B) { benchFigure(b, experiments.MultiGPU) }

// BenchmarkColocate regenerates the heterogeneous co-location study on the
// cluster engine.
func BenchmarkColocate(b *testing.B) { benchFigure(b, experiments.Colocate) }
