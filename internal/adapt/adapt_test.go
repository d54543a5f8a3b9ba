package adapt

import (
	"testing"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// sig builds a fetch-direction signal with the given inflation over one
// second of exclusive wire time.
func sig(fetchInflation float64) gpu.LatenessSignal {
	return gpu.LatenessSignal{
		FetchFlows:     4,
		FetchExclusive: units.Second,
		FetchRealized:  units.Duration(fetchInflation * float64(units.Second)),
	}
}

func TestControllerDeadband(t *testing.T) {
	c := New(Config{})
	// No observations: nothing to do.
	if _, ok := c.Retiming(); ok {
		t.Error("fresh controller asked for a retiming")
	}
	// Inflation inside the default deadband: still nothing.
	c.Observe(sig(1.1))
	if _, ok := c.Retiming(); ok {
		t.Errorf("retiming requested inside the deadband (EMA %.2f)", c.FetchInflation())
	}
	// Past the deadband the factor is the EMA.
	c.Observe(sig(3.0))
	rt, ok := c.Retiming()
	if !ok {
		t.Fatal("no retiming past the deadband")
	}
	want := 0.5*3.0 + 0.5*1.1
	if diff := rt.FetchInflation - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("FetchInflation = %v, want EMA %v", rt.FetchInflation, want)
	}
}

func TestControllerClampsInflation(t *testing.T) {
	c := New(Config{MaxInflation: 4})
	c.Observe(sig(100))
	rt, ok := c.Retiming()
	if !ok {
		t.Fatal("no retiming at 100x inflation")
	}
	if rt.FetchInflation != 4 {
		t.Errorf("FetchInflation = %v, want clamp 4", rt.FetchInflation)
	}
}

func TestControllerIgnoresEmptyDirections(t *testing.T) {
	c := New(Config{})
	c.Observe(gpu.LatenessSignal{}) // no flows at all
	if c.FetchInflation() != 1 || c.EvictInflation() != 1 {
		t.Errorf("EMAs moved on an empty signal: %v / %v", c.FetchInflation(), c.EvictInflation())
	}
	// An eviction-only signal must not disturb the fetch EMA.
	c.Observe(gpu.LatenessSignal{
		EvictFlows: 2, EvictExclusive: units.Millisecond, EvictRealized: 3 * units.Millisecond,
	})
	if c.FetchInflation() != 1 {
		t.Errorf("fetch EMA moved on an evict-only signal: %v", c.FetchInflation())
	}
	if c.EvictInflation() != 3 {
		t.Errorf("evict EMA = %v, want 3", c.EvictInflation())
	}
}

func TestControllerDeferOnIdleWritePath(t *testing.T) {
	c := New(Config{})
	c.Observe(gpu.LatenessSignal{
		EvictFlows: 2, EvictExclusive: units.Millisecond, EvictRealized: units.Millisecond,
	})
	rt, ok := c.Retiming()
	if !ok || !rt.DeferEvictions {
		t.Errorf("idle write path did not enable deferral: %+v ok=%v", rt, ok)
	}
	// A busy write path disables it again.
	c.Observe(gpu.LatenessSignal{
		EvictFlows: 2, EvictExclusive: units.Millisecond, EvictRealized: 10 * units.Millisecond,
	})
	if rt, _ := c.Retiming(); rt.DeferEvictions {
		t.Errorf("busy write path (EMA %.2f) still deferring", c.EvictInflation())
	}
}

// planProgram builds a retimable program over a pressured workload.
func planProgram(t *testing.T) *planner.Program {
	t.Helper()
	g := models.TinyCNN(128)
	tr := profile.Profile(g, profile.A100(200))
	a, err := vitality.Analyze(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := planner.Default()
	cfg.GPUCapacity = a.PeakAlive() / 2
	cfg.HostCapacity = a.PeakAlive()
	plan := planner.New(a, cfg)
	if len(plan.Decisions) == 0 {
		t.Fatal("plan scheduled no migrations")
	}
	return plan.Program
}

// TestControllerNextProgram: contention re-times the plan, persistent calm
// reverts to the exact base program, and an unobserved controller never
// touches it.
func TestControllerNextProgram(t *testing.T) {
	base := planProgram(t)
	c := New(Config{})
	if np := c.NextProgram(base); np != nil {
		t.Fatal("unobserved controller replaced the program")
	}
	c.Observe(sig(6))
	retimed := c.NextProgram(base)
	if retimed == nil || retimed == base {
		t.Fatal("6x inflation did not re-time the program")
	}
	// Calm iterations bring the EMA back inside the deadband; the
	// controller must hand back the base program itself, not a copy.
	for i := 0; i < 10; i++ {
		c.Observe(sig(1))
	}
	if np := c.NextProgram(retimed); np != base {
		t.Errorf("calm controller returned %p, want the base program %p", np, base)
	}
	if np := c.NextProgram(base); np != nil {
		t.Error("calm controller replaced the base program again")
	}
}
