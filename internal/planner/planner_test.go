package planner

import (
	"testing"

	"g10sim/internal/dnn"
	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// pressureGraph builds a graph where tensor BIG (30MB) is produced by k0,
// idle through k1..k8 (10ms each), and consumed by k9. A chain of small
// tensors flows through the middle, bulging to 10MB at k4/k5 so the peak
// pressure (50MB at k4) exceeds a 45MB GPU only in the middle of the
// timeline — after an eviction of BIG has had time to complete.
func pressureGraph(t *testing.T) *vitality.Analysis {
	t.Helper()
	b := dnn.NewBuilder("pressure", 1)
	chainSize := func(i int) units.Bytes {
		if i == 4 || i == 5 {
			return 10 * units.MB
		}
		return 2 * units.MB
	}
	c0 := b.Tensor("c0", dnn.Intermediate, chainSize(0))
	big := b.Tensor("BIG", dnn.Intermediate, 30*units.MB)
	c1 := b.Tensor("c1", dnn.Intermediate, chainSize(1))
	b.Kernel("k0", dnn.Forward, 1, []*dnn.Tensor{c0}, []*dnn.Tensor{big, c1})
	prev := c1
	for i := 1; i <= 8; i++ {
		next := b.Tensor("c", dnn.Intermediate, chainSize(i+1))
		b.Kernel("k", dnn.Forward, 1, []*dnn.Tensor{prev}, []*dnn.Tensor{next})
		prev = next
	}
	b.Kernel("k9", dnn.Backward, 1, []*dnn.Tensor{big, prev}, []*dnn.Tensor{prev})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	durs := make([]units.Duration, len(g.Kernels))
	for i := range durs {
		durs[i] = 10 * units.Millisecond
	}
	return vitality.MustAnalyze(g, &profile.Trace{Durations: durs})
}

func testConfig() Config {
	cfg := Default()
	cfg.GPUCapacity = 45 * units.MB
	cfg.HostCapacity = 100 * units.MB
	return cfg
}

func TestPlanEvictsTheBeneficialTensor(t *testing.T) {
	a := pressureGraph(t)
	if a.PeakAlive() <= 45*units.MB {
		t.Fatalf("test graph peak %v not above capacity", a.PeakAlive())
	}
	plan := New(a, testConfig())
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Decisions) == 0 {
		t.Fatal("no decisions scheduled")
	}
	d := plan.Decisions[0]
	if d.Period.Tensor.Name != "BIG" {
		t.Errorf("first eviction is %s, want BIG", d.Period.Tensor.Name)
	}
	if d.EvictBoundary != 1 {
		t.Errorf("evict boundary = %d, want 1 (right after k0)", d.EvictBoundary)
	}
	if plan.PeakPressure > 45*units.MB {
		t.Errorf("planned peak %v still above capacity", plan.PeakPressure)
	}
	if plan.ResidualOverflow != 0 {
		t.Errorf("residual overflow %v", plan.ResidualOverflow)
	}
}

func TestPlanStopsWhenPressureFits(t *testing.T) {
	a := pressureGraph(t)
	cfg := testConfig()
	cfg.GPUCapacity = 64 * units.MB // everything fits (peak is 50MB)
	plan := New(a, cfg)
	if len(plan.Decisions) != 0 {
		t.Errorf("scheduled %d evictions with ample memory", len(plan.Decisions))
	}
}

func TestPlanPrefersSSDWhenChannelFree(t *testing.T) {
	a := pressureGraph(t)
	plan := New(a, testConfig())
	for _, d := range plan.Decisions {
		if d.Target != uvm.InFlash {
			t.Errorf("eviction of %s went to %v with an idle SSD channel", d.Period.Tensor.Name, d.Target)
		}
	}
}

func TestGDSConfigNeverUsesHost(t *testing.T) {
	a := pressureGraph(t)
	cfg := testConfig()
	cfg.UseHost = false
	plan := New(a, cfg)
	if len(plan.Decisions) == 0 {
		t.Fatal("no decisions")
	}
	for _, d := range plan.Decisions {
		if d.Target != uvm.InFlash {
			t.Errorf("G10-GDS evicted to %v", d.Target)
		}
	}
	if plan.PlannedHostBytes != 0 {
		t.Errorf("PlannedHostBytes = %v", plan.PlannedHostBytes)
	}
}

// TestHostSpillWhenSSDSaturated drives many simultaneous evictions through
// a tiny SSD write channel so Algorithm 1's lines 8–14 must divert some to
// host memory.
func TestHostSpillWhenSSDSaturated(t *testing.T) {
	b := dnn.NewBuilder("spill", 1)
	var bigs []*dnn.Tensor
	prev := b.Tensor("x0", dnn.Intermediate, 2*units.MB)
	// k0 produces four 25MB tensors all idle until the last kernel.
	outs := []*dnn.Tensor{}
	for i := 0; i < 4; i++ {
		big := b.Tensor("BIG", dnn.Intermediate, 25*units.MB)
		bigs = append(bigs, big)
		outs = append(outs, big)
	}
	x1 := b.Tensor("x1", dnn.Intermediate, 2*units.MB)
	b.Kernel("k0", dnn.Forward, 1, []*dnn.Tensor{prev}, append(append([]*dnn.Tensor{}, outs...), x1))
	prev = x1
	for i := 1; i <= 8; i++ {
		next := b.Tensor("x", dnn.Intermediate, 2*units.MB)
		b.Kernel("k", dnn.Forward, 1, []*dnn.Tensor{prev}, []*dnn.Tensor{next})
		prev = next
	}
	b.Kernel("k9", dnn.Backward, 1, append(append([]*dnn.Tensor{}, bigs...), prev), []*dnn.Tensor{prev})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	durs := make([]units.Duration, len(g.Kernels))
	for i := range durs {
		durs[i] = 20 * units.Millisecond
	}
	a := vitality.MustAnalyze(g, &profile.Trace{Durations: durs})

	cfg := Default()
	cfg.GPUCapacity = 40 * units.MB
	cfg.HostCapacity = 200 * units.MB
	cfg.SSDWriteBW = units.GBps(0.8) // 25MB takes ~31ms: one eviction fills the channel
	cfg.SSDReadBW = units.GBps(0.8)
	plan := New(a, cfg)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.PlannedHostBytes == 0 {
		t.Errorf("no host spill despite saturated SSD (ssd=%v host=%v, %d decisions)",
			plan.PlannedSSDBytes, plan.PlannedHostBytes, len(plan.Decisions))
	}
}

func TestEagerPrefetchMovesEarlierWhenRoomAllows(t *testing.T) {
	a := pressureGraph(t)
	cfg := testConfig()
	// Capacity just below the 50MB peak forces one eviction, while leaving
	// room to hold BIG again through most of the middle of the timeline.
	cfg.GPUCapacity = 49 * units.MB
	plan := New(a, cfg)
	if len(plan.Decisions) == 0 {
		t.Fatal("no decisions")
	}
	d := plan.Decisions[0]
	// Latest-safe prefetch would be around kernel 8-9 (30MB at 3.2GB/s is
	// ~9.4ms, one kernel's worth); eager prefetch should pull it earlier
	// since pressure is only 20MB+30MB < 49MB for middle kernels.
	if d.PrefetchBoundary >= 8 {
		t.Errorf("prefetch boundary = %d; eager prefetch should move it earlier", d.PrefetchBoundary)
	}
	if d.PrefetchBoundary <= d.EvictBoundary {
		t.Errorf("prefetch boundary %d not after evict boundary %d", d.PrefetchBoundary, d.EvictBoundary)
	}
}

func TestProgramEmission(t *testing.T) {
	a := pressureGraph(t)
	plan := New(a, testConfig())
	prog := plan.Program
	if prog == nil || len(prog.Boundaries) != len(a.Graph.Kernels)+1 {
		t.Fatal("program missing or wrong boundary count")
	}
	if got := prog.CountKind(OpPreEvict); got != len(plan.Decisions) {
		t.Errorf("pre-evict instructions = %d, decisions = %d", got, len(plan.Decisions))
	}
	if got := prog.CountKind(OpPrefetch); got != len(plan.Decisions) {
		t.Errorf("prefetch instructions = %d, decisions = %d", got, len(plan.Decisions))
	}
	// Every intermediate/workspace tensor allocs exactly once and frees
	// exactly once (they all die before the iteration ends except those
	// used by the last kernel — DeadAt == n frees at boundary n).
	var nonGlobal int
	for _, tensor := range a.Graph.Tensors {
		if tensor.Kind != dnn.Global {
			nonGlobal++
		}
	}
	if got := prog.CountKind(OpAlloc); got != nonGlobal {
		t.Errorf("allocs = %d, non-global tensors = %d", got, nonGlobal)
	}
	if got := prog.CountKind(OpFree); got != nonGlobal {
		t.Errorf("frees = %d, non-global tensors = %d", got, nonGlobal)
	}
	// Allocation for BIG must appear at boundary 0 (born at k0); its
	// pre-evict at boundary 1.
	foundAlloc := false
	for _, in := range prog.Boundaries[0] {
		if in.Kind == OpAlloc && in.Tensor.Name == "BIG" {
			foundAlloc = true
		}
	}
	if !foundAlloc {
		t.Error("BIG not allocated at boundary 0")
	}
}

func TestEmptyProgramHasNoMigrations(t *testing.T) {
	a := pressureGraph(t)
	prog := EmptyProgram(a)
	if prog.CountKind(OpPreEvict) != 0 || prog.CountKind(OpPrefetch) != 0 {
		t.Error("EmptyProgram contains migrations")
	}
	if prog.CountKind(OpAlloc) == 0 {
		t.Error("EmptyProgram missing allocs")
	}
}

// TestEmitBoundariesDoNotAlias: the boundaries share one backing list, so
// appending to one boundary must not overwrite the next.
func TestEmitBoundariesDoNotAlias(t *testing.T) {
	a := pressureGraph(t)
	prog := New(a, testConfig()).Program
	for b := 0; b+1 < len(prog.Boundaries); b++ {
		next := append([]Instr(nil), prog.Boundaries[b+1]...)
		_ = append(prog.Boundaries[b], Instr{Kind: OpFree, Tensor: a.Graph.Tensors[0]})
		for i, in := range prog.Boundaries[b+1] {
			if in != next[i] {
				t.Fatalf("appending to boundary %d rewrote boundary %d's instruction %d: %v, was %v", b, b+1, i, in, next[i])
			}
		}
	}
}

func TestPlanOnRealModelFitsCapacity(t *testing.T) {
	g := models.TinyCNN(256)
	// Stretch kernel times (as the calibrated paper models do) so the
	// channels can move hundreds of MB within one iteration.
	tr := profile.Profile(g, profile.A100(200))
	a := vitality.MustAnalyze(g, tr)

	cfg := Default()
	// Squeeze: capacity at 60% of peak, but above the largest working set.
	cap := units.Bytes(float64(a.PeakAlive()) * 0.6)
	if cap < a.PeakActive() {
		cap = a.PeakActive() + units.MB
	}
	cfg.GPUCapacity = cap
	cfg.HostCapacity = 2 * units.GB
	plan := New(a, cfg)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Decisions) == 0 {
		t.Fatal("no evictions scheduled under memory pressure")
	}
	// Planned peak should be at or very near capacity (small residual is
	// tolerable when working sets constrain scheduling).
	if plan.PeakPressure > cap+cap/10 {
		t.Errorf("planned peak %v far above capacity %v", plan.PeakPressure, cap)
	}
	t.Logf("TinyCNN: peak alive %v, cap %v, planned peak %v, decisions %d (ssd %v, host %v)",
		a.PeakAlive(), cap, plan.PeakPressure, len(plan.Decisions), plan.PlannedSSDBytes, plan.PlannedHostBytes)
}

func TestWrapDecisionForGlobalTensor(t *testing.T) {
	// Weights used early in forward and late in backward have a wrap
	// period; under pressure the planner may evict them across the
	// iteration boundary, and validation must accept those decisions.
	g := models.TinyMLP(512)
	tr := profile.Profile(g, profile.A100(200))
	a := vitality.MustAnalyze(g, tr)
	cfg := Default()
	cfg.GPUCapacity = a.PeakActive() + 2*units.MB
	cfg.HostCapacity = units.GB
	plan := New(a, cfg)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("TinyMLP: %d decisions, peak %v -> %v", len(plan.Decisions), a.PeakAlive(), plan.PeakPressure)
}

func TestOpKindStrings(t *testing.T) {
	names := map[OpKind]string{
		OpAlloc:    "g10_alloc",
		OpFree:     "g10_free",
		OpPreEvict: "g10_pre_evict",
		OpPrefetch: "g10_prefetch",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	in := Instr{Kind: OpPreEvict, Tensor: &dnn.Tensor{Name: "T", Size: units.MB}, Target: uvm.InFlash}
	if in.String() == "" {
		t.Error("empty Instr string")
	}
}
