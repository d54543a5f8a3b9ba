// Command g10sim runs one (model, batch size, policy) simulation and prints
// a run report: iteration time versus ideal, stall breakdown, migration
// traffic by channel, fault counts, and SSD statistics.
//
// Example:
//
//	g10sim -model BERT -batch 256 -policy G10
//	g10sim -model ResNet152 -batch 1280 -policy "Base UVM" -host 64
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"g10sim/internal/experiments"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// policyAliases maps the space-free spellings the -policy flag accepts to
// the policy names experiments.NewPolicy knows.
var policyAliases = map[string]string{"BaseUVM": "Base UVM", "DeepUM": "DeepUM+"}

func main() {
	var (
		modelName = flag.String("model", "BERT", "model name (BERT, ViT, Inceptionv3, ResNet152, SENet154)")
		batch     = flag.Int("batch", 0, "batch size (0 = the paper's batch for the model)")
		polName   = flag.String("policy", "G10", "policy: Ideal, Base UVM (BaseUVM), DeepUM+ (DeepUM), FlashNeuron, G10-GDS, G10-Host, G10, G10-Adaptive")
		gpuGB     = flag.Float64("gpu", 40, "GPU memory capacity in GB")
		hostGB    = flag.Float64("host", 128, "host memory capacity in GB")
		ssdBW     = flag.Float64("ssdbw", 0, "override SSD read/write bandwidth in GB/s (0 = Z-NAND defaults)")
		pcieBW    = flag.Float64("pcie", 15.754, "PCIe per-direction bandwidth in GB/s")
		iters     = flag.Int("iters", 2, "iterations to simulate (last one measured)")
		errPct    = flag.Float64("proferr", 0, "profiling error percent injected into the planning trace (Fig. 19)")
		seed      = flag.Int64("seed", 1, "seed for profiling-error injection")
	)
	flag.Parse()

	spec, err := models.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	b := *batch
	if b == 0 {
		b = spec.PaperBatch
	}

	fmt.Printf("building %s at batch %d...\n", spec.Name, b)
	t0 := time.Now()
	g := spec.Build(b)
	trace := profile.Profile(g, profile.A100(spec.TimeScale))

	cfg := gpu.Default()
	cfg.GPUCapacity = units.Bytes(*gpuGB * float64(units.GB))
	cfg.HostCapacity = units.Bytes(*hostGB * float64(units.GB))
	cfg.PCIeBandwidth = units.GBps(*pcieBW)
	cfg.Iterations = *iters
	if *ssdBW > 0 {
		cfg.SSD.ReadBandwidth = units.GBps(*ssdBW)
		cfg.SSD.WriteBandwidth = units.GBps(*ssdBW * 3.0 / 3.2)
	}

	planTrace := trace
	if *errPct > 0 {
		planTrace = trace.Perturb(*errPct/100, *seed)
	}
	a, err := vitality.Analyze(g, planTrace)
	if err != nil {
		fatal(err)
	}

	name := *polName
	if alias, ok := policyAliases[name]; ok {
		name = alias
	}
	pol, err := experiments.NewPolicy(name)
	if err != nil {
		fatal(err)
	}
	cfg = experiments.PolicyConfig(name, cfg)

	s := g.Summary()
	fmt.Printf("graph: %d kernels, %d tensors, footprint %v (%.1f%% of GPU), max working set %v\n",
		s.Kernels, s.Tensors, s.Footprint,
		100*float64(s.Footprint)/float64(cfg.GPUCapacity), s.MaxWorkingSet)

	res, err := gpu.Run(gpu.RunParams{Analysis: a, Policy: pol, Config: cfg, ExecTrace: trace})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(t0)

	if res.Failed {
		fmt.Printf("\nRUN FAILED: %s\n", res.FailReason)
		os.Exit(2)
	}
	fmt.Printf("\n=== %s / batch %d / %s ===\n", res.Model, res.Batch, res.Policy)
	fmt.Printf("iteration time:   %v (ideal %v, %.1f%% of ideal)\n",
		res.IterationTime, res.IdealTime, 100*res.NormalizedPerf())
	fmt.Printf("throughput:       %.2f examples/s\n", res.Throughput())
	fmt.Printf("stall time:       %v (%.1f%%)\n", res.StallTime,
		100*float64(res.StallTime)/float64(res.IterationTime))
	fmt.Printf("traffic GPU→SSD:  %v   SSD→GPU: %v\n", res.GPUToSSD, res.SSDToGPU)
	fmt.Printf("traffic GPU→Host: %v   Host→GPU: %v\n", res.GPUToHost, res.HostToGPU)
	fmt.Printf("faults:           %d events, %v (%d pages)\n", res.Faults, res.FaultedBytes, res.FaultedPages)
	if res.OverflowKernels > 0 {
		fmt.Printf("overflow kernels: %d (streamed %v)\n", res.OverflowKernels, res.OverflowBytes)
	}
	fmt.Printf("SSD: %v host writes, WA %.2f, %d GC runs, lifetime at this write rate: %.1f years\n",
		res.SSDStats.HostWriteBytes, res.WriteAmp, res.SSDStats.GCRuns,
		cfg.SSD.LifetimeYears(writeRate(res)))
	fmt.Printf("TLB hit rate:     %.3f\n", res.TLBHitRate)
	fmt.Printf("(simulated in %v)\n", wall.Round(time.Millisecond))
}

// writeRate converts the measured iteration's SSD write volume into a
// sustained bandwidth for the §7.7 lifetime model.
func writeRate(res gpu.Result) units.Bandwidth {
	if res.IterationTime <= 0 {
		return 0
	}
	return units.Bandwidth(float64(res.GPUToSSD) / res.IterationTime.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "g10sim:", err)
	os.Exit(1)
}
