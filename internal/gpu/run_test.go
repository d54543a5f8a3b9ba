package gpu

import (
	"strings"
	"testing"

	"g10sim/internal/dnn"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/ssd"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// testPolicy is a reactive LRU policy (Base UVM semantics) local to this
// package so gpu's tests do not depend on internal/policy.
type testPolicy struct {
	m      *Machine
	name   string
	strict bool
}

func (p *testPolicy) Name() string           { return p.name }
func (p *testPolicy) Attach(m *Machine)      { p.m = m }
func (p *testPolicy) AtBoundary(iter, b int) {}
func (p *testPolicy) OnMiss(k int, t *dnn.Tensor) {
	p.m.RequestFetch(t.ID, uvm.FaultFetch)
}
func (p *testPolicy) MakeRoom(need units.Bytes, pinned map[int]bool) bool {
	var freed units.Bytes
	for _, id := range p.m.ResidentLRU() {
		if freed >= need {
			break
		}
		if pinned[id] {
			continue
		}
		t := p.m.Graph().Tensors[id]
		dst := uvm.InHost
		if p.m.HostFree() < t.Size {
			dst = uvm.InFlash
		}
		if p.m.RequestEvict(id, dst) {
			freed += t.Size
		}
	}
	return freed > 0
}
func (p *testPolicy) UsesUVM() bool     { return !p.strict }
func (p *testPolicy) DirectFlash() bool { return false }

// smallSSD returns an SSD config sized for MB-scale tests.
func smallSSD() ssd.Config {
	cfg := ssd.ZNAND()
	cfg.Capacity = 4 * units.GB
	cfg.PageSize = 64 * units.KB
	return cfg
}

func testCfg(gpuCap, hostCap units.Bytes) Config {
	cfg := Default()
	cfg.GPUCapacity = gpuCap
	cfg.HostCapacity = hostCap
	cfg.SSD = smallSSD()
	cfg.TranslationGranularity = 64 * units.KB
	return cfg
}

func analyze(t testing.TB, g *dnn.Graph, timeScale float64) *vitality.Analysis {
	t.Helper()
	tr := profile.Profile(g, profile.A100(timeScale))
	a, err := vitality.Analyze(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIdealRunMatchesTrace(t *testing.T) {
	a := analyze(t, models.TinyMLP(32), 50)
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "Ideal"},
		Config:   testCfg(1<<40, 1<<40),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("ideal run failed: %s", res.FailReason)
	}
	if res.IterationTime != res.IdealTime {
		t.Errorf("ideal iteration %v != trace total %v", res.IterationTime, res.IdealTime)
	}
	if res.TotalTraffic() != 0 {
		t.Errorf("ideal run moved %v", res.TotalTraffic())
	}
	if res.Faults != 0 {
		t.Errorf("ideal run faulted %d times", res.Faults)
	}
	if res.NormalizedPerf() != 1.0 {
		t.Errorf("normalized perf = %v", res.NormalizedPerf())
	}
}

func TestPressuredRunFaultsAndCompletes(t *testing.T) {
	g := models.TinyMLP(64)
	a := analyze(t, g, 50)
	// Capacity at 50% of peak forces swapping.
	cap := a.PeakAlive() / 2
	if cap < a.PeakActive() {
		t.Skip("test net working set too large for pressure scenario")
	}
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "Base UVM"},
		Config:   testCfg(cap, 1*units.GB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if res.Faults == 0 {
		t.Error("no faults under 2x oversubscription")
	}
	if res.IterationTime <= res.IdealTime {
		t.Errorf("pressured run (%v) not slower than ideal (%v)", res.IterationTime, res.IdealTime)
	}
	if res.TotalTraffic() == 0 {
		t.Error("no migration traffic")
	}
	if got := len(res.KernelTimes); got != len(g.Kernels) {
		t.Errorf("kernel times = %d, kernels = %d", got, len(g.Kernels))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		a := analyze(t, models.TinyMLP(64), 50)
		res, err := Run(RunParams{
			Analysis: a,
			Policy:   &testPolicy{name: "Base UVM"},
			Config:   testCfg(a.PeakAlive()/2, 1*units.GB),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.IterationTime != r2.IterationTime || r1.Faults != r2.Faults || r1.TotalTraffic() != r2.TotalTraffic() {
		t.Errorf("non-deterministic: %v/%d/%v vs %v/%d/%v",
			r1.IterationTime, r1.Faults, r1.TotalTraffic(),
			r2.IterationTime, r2.Faults, r2.TotalTraffic())
	}
}

func TestStrictPolicyFailsOnOverflow(t *testing.T) {
	g := models.TinyMLP(64)
	a := analyze(t, g, 50)
	// Capacity below the largest working set: a strict (non-UVM) memory
	// manager must fail, a UVM one must stream.
	cap := a.PeakActive() - units.MB
	if cap <= 0 {
		t.Skip("working set too small")
	}
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "strict", strict: true},
		Config:   testCfg(cap, 1*units.GB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Error("strict policy did not fail with working set above capacity")
	}

	res2, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "uvm"},
		Config:   testCfg(cap, 1*units.GB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("UVM policy failed: %s", res2.FailReason)
	}
	if res2.OverflowKernels == 0 {
		t.Error("UVM policy reported no overflow kernels")
	}
}

func TestG10ProgramBeatsReactive(t *testing.T) {
	g := models.TinyCNN(128)
	a := analyze(t, g, 200)
	cap := units.Bytes(float64(a.PeakAlive()) * 0.6)
	if cap < a.PeakActive() {
		cap = a.PeakActive() + units.MB
	}
	cfg := testCfg(cap, 2*units.GB)

	base, err := Run(RunParams{Analysis: a, Policy: &testPolicy{name: "Base UVM"}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	pcfg := planner.Default()
	pcfg.GPUCapacity = cap
	pcfg.HostCapacity = 2 * units.GB
	pcfg.SSDWriteBW = cfg.SSD.WriteBandwidth
	pcfg.SSDReadBW = cfg.SSD.ReadBandwidth
	pcfg.HostWriteBW = cfg.PCIeBandwidth
	pcfg.HostReadBW = cfg.PCIeBandwidth
	plan := planner.New(a, pcfg)
	g10res, err := Run(RunParams{
		Analysis: a,
		Policy:   &plannedPolicy{testPolicy: testPolicy{name: "G10"}, prog: plan.Program},
		Config:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g10res.Failed || base.Failed {
		t.Fatalf("failed runs: g10=%v base=%v", g10res.FailReason, base.FailReason)
	}
	t.Logf("base: %v (%d faults), g10: %v (%d faults), ideal %v",
		base.IterationTime, base.Faults, g10res.IterationTime, g10res.Faults, base.IdealTime)
	if g10res.IterationTime >= base.IterationTime {
		t.Errorf("planned migrations (%v) not faster than reactive (%v)", g10res.IterationTime, base.IterationTime)
	}
	if g10res.Faults >= base.Faults {
		t.Errorf("planned migrations faulted %d >= reactive %d", g10res.Faults, base.Faults)
	}
}

// plannedPolicy runs a precomputed program with reactive fallbacks.
type plannedPolicy struct {
	testPolicy
	prog *planner.Program
}

func (p *plannedPolicy) Program(a *vitality.Analysis, cfg Config) *planner.Program { return p.prog }
func (p *plannedPolicy) DirectFlash() bool                                         { return true }

func TestRunRejectsMismatchedExecTrace(t *testing.T) {
	a := analyze(t, models.TinyMLP(8), 1)
	_, err := Run(RunParams{
		Analysis:  a,
		Policy:    &testPolicy{name: "x"},
		Config:    testCfg(1<<40, 1<<40),
		ExecTrace: &profile.Trace{Durations: []units.Duration{1}},
	})
	if err == nil {
		t.Error("expected mismatch error")
	}
}

func TestOversizedGlobalsSeedToHost(t *testing.T) {
	// A weight bigger than GPU memory starts in host memory; the kernel
	// that needs it streams (its working set exceeds the GPU outright).
	b := dnn.NewBuilder("fat", 1)
	w := b.Tensor("W", dnn.Global, 100*units.MB)
	x := b.Tensor("X", dnn.Intermediate, units.MB)
	b.Kernel("k", dnn.Forward, 1, []*dnn.Tensor{w, x}, []*dnn.Tensor{x})
	g := b.MustBuild()
	a, err := vitality.Analyze(g, &profile.Trace{Durations: []units.Duration{units.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "x"},
		Config:   testCfg(10*units.MB, units.GB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if res.OverflowKernels == 0 {
		t.Error("expected overflow streaming for the oversized working set")
	}
}

// TestSpillFailsWhenFlashIsFull: a tensor that must start outside GPU
// memory with the host pool and the flash array both too small fails the
// run, whether it is a weight seeded at admission or an unallocated output
// of a kernel that streams.
func TestSpillFailsWhenFlashIsFull(t *testing.T) {
	for _, tc := range []struct {
		name          string
		weight, out   units.Bytes
		wantErrPrefix string
	}{
		{"seed", 8 * units.GB, units.MB, "gpu: seeding W: "},
		{"overflow", 2560 * units.MB, 2 * units.GB, "gpu: overflow spill: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := dnn.NewBuilder("fat", 1)
			w := b.Tensor("W", dnn.Global, tc.weight)
			y := b.Tensor("Y", dnn.Intermediate, tc.out)
			b.Kernel("k", dnn.Forward, 1, []*dnn.Tensor{w}, []*dnn.Tensor{y})
			a, err := vitality.Analyze(b.MustBuild(), &profile.Trace{Durations: []units.Duration{units.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testCfg(10*units.MB, units.MB) // smallSSD: 4 GB of flash
			_, err = RunCluster(ClusterParams{
				Tenants: []ClusterTenant{{Analysis: a, Policy: &testPolicy{name: "uvm"}, Config: cfg}},
				Shared:  cfg,
			})
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErrPrefix) {
				t.Fatalf("RunCluster error %v, want prefix %q", err, tc.wantErrPrefix)
			}
		})
	}
}

func TestWriteAmpAndTLBReported(t *testing.T) {
	a := analyze(t, models.TinyMLP(64), 50)
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "Base UVM"},
		Config:   testCfg(a.PeakAlive()/2, 4*units.MB), // tiny host forces SSD traffic
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteAmp < 1 {
		t.Errorf("write amplification %v < 1", res.WriteAmp)
	}
	if res.GPUToSSD == 0 {
		t.Error("no SSD eviction traffic despite tiny host memory")
	}
	if res.TLBHitRate < 0 || res.TLBHitRate > 1 {
		t.Errorf("TLB hit rate %v out of range", res.TLBHitRate)
	}
}

func TestSlowdownCDF(t *testing.T) {
	a := analyze(t, models.TinyMLP(32), 50)
	res, err := Run(RunParams{
		Analysis: a,
		Policy:   &testPolicy{name: "Ideal"},
		Config:   testCfg(1<<40, 1<<40),
	})
	if err != nil {
		t.Fatal(err)
	}
	cdf := SlowdownCDF(res, a.Trace)
	if len(cdf) != len(res.KernelTimes) {
		t.Fatalf("cdf length %d", len(cdf))
	}
	for i, v := range cdf {
		if v < 0.99 {
			t.Errorf("cdf[%d] = %v < 1 for ideal run", i, v)
		}
		if i > 0 && cdf[i] < cdf[i-1] {
			t.Error("cdf not sorted")
		}
	}
}

func TestNormalizedHelpers(t *testing.T) {
	r := Result{IdealTime: units.Second, IterationTime: 2 * units.Second, Batch: 10}
	if r.NormalizedPerf() != 0.5 {
		t.Errorf("NormalizedPerf = %v", r.NormalizedPerf())
	}
	if r.Throughput() != 5 {
		t.Errorf("Throughput = %v", r.Throughput())
	}
	failed := Result{Failed: true, IdealTime: units.Second, IterationTime: units.Second}
	if failed.NormalizedPerf() != 0 || failed.Throughput() != 0 {
		t.Error("failed runs must report zero performance")
	}
}

// TestSteadyState: measuring iteration 2 vs iteration 3 of the same
// workload must agree closely — the simulator reaches a steady state after
// one warm-up iteration.
func TestSteadyState(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cap := units.Bytes(float64(a.PeakAlive()) * 0.6)
	if cap < a.PeakActive() {
		cap = a.PeakActive() + units.MB
	}
	run := func(iters int) Result {
		cfg := testCfg(cap, 2*units.GB)
		cfg.Iterations = iters
		res, err := Run(RunParams{Analysis: a, Policy: &testPolicy{name: "Base UVM"}, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two, three := run(2), run(3)
	ratio := float64(three.IterationTime) / float64(two.IterationTime)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("iteration 3 (%v) deviates from iteration 2 (%v) by %0.f%%",
			three.IterationTime, two.IterationTime, 100*(ratio-1))
	}
}

// TestMoreGPUMemoryNeverHurts: a strictly larger GPU cannot slow any
// policy down by a meaningful margin.
func TestMoreGPUMemoryNeverHurts(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	small := units.Bytes(float64(a.PeakAlive()) * 0.55)
	if small < a.PeakActive() {
		small = a.PeakActive() + units.MB
	}
	big := units.Bytes(float64(a.PeakAlive()) * 0.85)
	run := func(cap units.Bytes) Result {
		res, err := Run(RunParams{Analysis: a, Policy: &testPolicy{name: "Base UVM"}, Config: testCfg(cap, 2*units.GB)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs, rb := run(small), run(big)
	if float64(rb.IterationTime) > 1.05*float64(rs.IterationTime) {
		t.Errorf("bigger GPU slower: %v (%.0fMB) vs %v (%.0fMB)",
			rb.IterationTime, float64(big)/1e6, rs.IterationTime, float64(small)/1e6)
	}
	if rb.TotalTraffic() > rs.TotalTraffic() {
		t.Errorf("bigger GPU moved more data: %v vs %v", rb.TotalTraffic(), rs.TotalTraffic())
	}
}
