package gpu

import (
	"reflect"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// replanPolicy is a testPolicy that also plans (so its program is
// retimable) and re-times it from the observed signal — a miniature of the
// policy/adapt stack, kept inside the gpu package so the hook mechanics are
// pinned independently of the production controller.
type replanPolicy struct {
	testPolicy
	// threshold is the fetch inflation above which the program is retimed;
	// <= 0 never retimes (signal recording only).
	threshold float64
	calls     int
	signals   []LatenessSignal
	swapped   int
}

func (p *replanPolicy) Program(a *vitality.Analysis, cfg Config) *planner.Program {
	pcfg := planner.Default()
	pcfg.GPUCapacity = cfg.GPUCapacity
	pcfg.HostCapacity = cfg.HostCapacity
	pcfg.SSDWriteBW = cfg.SSD.WriteBandwidth
	pcfg.SSDReadBW = cfg.SSD.ReadBandwidth
	pcfg.HostWriteBW = cfg.PCIeBandwidth
	pcfg.HostReadBW = cfg.PCIeBandwidth
	return planner.New(a, pcfg).Program
}

func (p *replanPolicy) NextProgram(iter int, sig LatenessSignal, cur *planner.Program) *planner.Program {
	p.calls++
	p.signals = append(p.signals, sig)
	if p.threshold <= 0 {
		return nil
	}
	if f := sig.FetchInflation(); f > p.threshold {
		if np := cur.Retime(planner.Retiming{FetchInflation: f, EvictInflation: sig.EvictInflation()}); np != cur {
			p.swapped++
			return np
		}
	}
	return nil
}

// TestReplannerHookCadence: the hook runs at every iteration-closing
// boundary except the last, and the per-iteration signals sum to the
// machine's cumulative ledger.
func TestReplannerHookCadence(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cfg := testCfg(a.PeakAlive()/2, 256*units.MB)
	cfg.Iterations = 4
	pol := &replanPolicy{testPolicy: testPolicy{name: "replan"}}
	res, err := Run(RunParams{Analysis: a, Policy: pol, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if pol.calls != cfg.Iterations-1 {
		t.Errorf("hook ran %d times, want %d", pol.calls, cfg.Iterations-1)
	}
	var sum LatenessSignal
	for _, s := range pol.signals {
		if s.FetchRealized < s.FetchExclusive || s.EvictRealized < s.EvictExclusive {
			t.Errorf("signal realized below exclusive: %+v", s)
		}
		if s.FetchInflation() < 1 || s.EvictInflation() < 1 {
			t.Errorf("inflation below 1: %+v", s)
		}
		sum.FetchFlows += s.FetchFlows
		sum.EvictFlows += s.EvictFlows
	}
	if sum.FetchFlows == 0 || sum.EvictFlows == 0 {
		t.Errorf("pressured run reported no migration flows: %+v", sum)
	}
	// The last iteration's flows stay in the cumulative ledger only.
	cum := pol.m.Lateness()
	if cum.FetchFlows < sum.FetchFlows || cum.EvictFlows < sum.EvictFlows {
		t.Errorf("cumulative ledger %+v below per-iteration sum %+v", cum, sum)
	}
}

// TestReplannerZeroLatenessIsInert: on a machine with no migrations the
// signal is exactly zero, the program is never swapped, and the result is
// bit-identical to the same policy without the hook.
func TestReplannerZeroLatenessIsInert(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cfg := testCfg(1<<40, 1<<40) // roomy: nothing ever migrates
	pol := &replanPolicy{testPolicy: testPolicy{name: "static"}, threshold: 1.0}
	adaptive, err := Run(RunParams{Analysis: a, Policy: pol, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pol.signals {
		if s != (LatenessSignal{}) {
			t.Errorf("migration-free run produced a non-zero signal: %+v", s)
		}
	}
	if pol.swapped != 0 {
		t.Errorf("program swapped %d times with zero lateness", pol.swapped)
	}
	static, err := Run(RunParams{
		Analysis: a,
		Policy:   &staticPlanPolicy{testPolicy{name: "static"}},
		Config:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adaptive, static) {
		t.Errorf("zero-lateness adaptive run diverged from static:\nadaptive: %+v\nstatic:   %+v", adaptive, static)
	}
}

// staticPlanPolicy is replanPolicy's planning side without the Replanner
// hook.
type staticPlanPolicy struct {
	testPolicy
}

func (p *staticPlanPolicy) Program(a *vitality.Analysis, cfg Config) *planner.Program {
	return (&replanPolicy{}).Program(a, cfg)
}

// TestReplannerSignalSeesContention: co-running tenants must observe a
// larger fetch inflation than the same tenant alone.
func TestReplannerSignalSeesContention(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cfg := testCfg(a.PeakAlive()/2, 4*units.MB) // tiny host: all traffic on flash
	inflation := func(tenants int) float64 {
		pols := make([]*replanPolicy, tenants)
		p := ClusterParams{Shared: cfg}
		for i := range pols {
			pols[i] = &replanPolicy{testPolicy: testPolicy{name: "t"}}
			p.Tenants = append(p.Tenants, ClusterTenant{Analysis: a, Policy: pols[i], Config: cfg})
		}
		mustRunCluster(t, p)
		sig := pols[0].m.Lateness()
		if sig.FetchFlows == 0 {
			t.Fatal("no fetch flows under pressure")
		}
		return sig.FetchInflation()
	}
	solo := inflation(1)
	quad := inflation(4)
	if quad <= solo {
		t.Errorf("4-tenant fetch inflation %.3f not above solo %.3f", quad, solo)
	}
	if quad < 1.5 {
		t.Errorf("4 tenants on one array produced inflation of only %.3f", quad)
	}
}

// TestAdaptiveTenantsUnderCheck: tenants that re-time their programs
// mid-run must pass Check.
func TestAdaptiveTenantsUnderCheck(t *testing.T) {
	a1 := analyze(t, models.TinyCNN(128), 200)
	a2 := analyze(t, models.TinyMLP(64), 50)
	build := func() ClusterParams {
		cfg1 := testCfg(a1.PeakAlive()/2, 8*units.MB)
		cfg2 := testCfg(a2.PeakAlive()/2, 8*units.MB)
		cfg1.Iterations = 3
		cfg2.Iterations = 3
		return ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a1, Policy: &replanPolicy{testPolicy: testPolicy{name: "t1"}, threshold: 1.05}, Config: cfg1},
				{Analysis: a2, Policy: &replanPolicy{testPolicy: testPolicy{name: "t2"}, threshold: 1.05}, Config: cfg2},
				{Analysis: a1, Policy: &replanPolicy{testPolicy: testPolicy{name: "t3"}, threshold: 1.05}, Config: cfg1,
					ArrivalTime: 5 * units.Millisecond},
			},
			Shared: cfg1,
		}
	}
	var pols []*replanPolicy
	runChecked(t, func() ClusterParams {
		p := build()
		for _, tn := range p.Tenants {
			pols = append(pols, tn.Policy.(*replanPolicy))
		}
		return p
	})
	swaps := 0
	for _, pol := range pols {
		swaps += pol.swapped
	}
	if swaps == 0 {
		t.Error("no tenant ever swapped its program; the checked run is vacuous")
	}
}
