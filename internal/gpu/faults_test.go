package gpu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/units"
)

// testRecovery checkpoints at a fixed cadence (0 = never) — a local
// Recovery so gpu's tests do not depend on internal/policy.
type testRecovery struct{ every int }

func (r testRecovery) Name() string { return "test" }
func (r testRecovery) CheckpointInterval(_, _, _ units.Duration) int {
	return r.every
}

// faultTestParams builds a three-tenant pressured cluster (GPU capacity at
// half of peak forces constant migration traffic) with the given fault plan
// and recovery cadence on every tenant.
func faultTestParams(t testing.TB, plan *FaultPlan, every int, iters int) func() ClusterParams {
	t.Helper()
	a1 := analyze(t, models.TinyCNN(128), 200)
	a2 := analyze(t, models.TinyMLP(64), 50)
	return func() ClusterParams {
		cfg1 := testCfg(a1.PeakAlive()/2, 8*units.MB)
		cfg2 := testCfg(a2.PeakAlive()/2, 8*units.MB)
		if iters > 0 {
			cfg1.Iterations = iters
			cfg2.Iterations = iters
		}
		p := ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a1, Policy: &testPolicy{name: "t1"}, Config: cfg1, Recovery: testRecovery{every}},
				{Analysis: a2, Policy: &testPolicy{name: "t2"}, Config: cfg2, Recovery: testRecovery{every}},
				{Analysis: a1, Policy: &testPolicy{name: "t3"}, Config: cfg1, Recovery: testRecovery{every}},
			},
			Shared: cfg1,
			Faults: plan,
		}
		return p
	}
}

// makespanOf runs the fault-free cluster once to anchor crash times.
func makespanOf(t testing.TB, build func() ClusterParams) units.Time {
	t.Helper()
	res := mustRunCluster(t, build())
	return units.Time(res.Makespan)
}

// TestFaultedDriversMatch: a run with crashes (one permanent), a link
// degradation window, and a die failure must pass Check — crash teardown
// returns every host grant and wakes every repaired tenant.
func TestFaultedDriversMatch(t *testing.T) {
	H := makespanOf(t, faultTestParams(t, nil, 0, 3))
	plan := &FaultPlan{
		Crashes: []CrashFault{
			{Tenant: 0, At: H / 4, RepairAfter: units.Duration(H / 10)},
			{Tenant: 2, At: H / 2, RepairAfter: -1}, // permanent
		},
		Degrades: []LinkDegrade{{Tenant: 1, From: H / 8, Until: H / 2, Factor: 0.25}},
		DieFails: []DieFail{{At: H / 3, Dies: 2}},
	}
	ev := runChecked(t, faultTestParams(t, plan, 1, 3))
	if ev.Tenants[0].Restarts != 1 {
		t.Errorf("tenant 0 restarts = %d, want 1", ev.Tenants[0].Restarts)
	}
	if !ev.Tenants[2].Failed || !strings.Contains(ev.Tenants[2].FailReason, "crashed") {
		t.Errorf("permanently crashed tenant 2: failed=%v reason=%q", ev.Tenants[2].Failed, ev.Tenants[2].FailReason)
	}
}

// TestIdleCrashInstantRepairIsNoop: crashing a server whose job has not
// arrived (and instantly repairing it) must leave the run byte-identical to
// the fault-free one — crashes only affect running jobs.
func TestIdleCrashInstantRepairIsNoop(t *testing.T) {
	arrival := 20 * units.Millisecond
	withArrival := func(plan *FaultPlan) func() ClusterParams {
		base := faultTestParams(t, plan, 0, 0)
		return func() ClusterParams {
			p := base()
			p.Tenants[1].ArrivalTime = arrival
			return p
		}
	}
	clean := mustRunCluster(t, withArrival(nil)())
	plan := &FaultPlan{Crashes: []CrashFault{{Tenant: 1, At: arrival / 2, RepairAfter: 0}}}
	faulted := mustRunCluster(t, withArrival(plan)())
	if !reflect.DeepEqual(clean, faulted) {
		t.Errorf("idle crash + instant repair perturbed the run:\nclean:   %+v\nfaulted: %+v", clean, faulted)
	}
}

// TestMidExecutionCrashAborts sweeps the crash over the run — hitting
// kernels mid-execution and migrations mid-flight — and checks the driver
// tears the victim down and recovers it, under Check and unchecked alike
// (the unchecked leg reads the engine's abort and restart counters).
func TestMidExecutionCrashAborts(t *testing.T) {
	H := makespanOf(t, faultTestParams(t, nil, 0, 3))
	var aborts int64
	for _, frac := range []int64{1, 2, 3} {
		at := units.Time(int64(H) * frac / 4)
		plan := &FaultPlan{Crashes: []CrashFault{{Tenant: 0, At: at, RepairAfter: units.Duration(H / 20)}}}
		build := faultTestParams(t, plan, 0, 3)
		victim := runChecked(t, build).Tenants[0]
		if victim.Failed {
			t.Errorf("crash at %v: victim failed: %s", at, victim.FailReason)
		}
		if victim.Restarts != 1 {
			t.Errorf("crash at %v: restarts = %d, want 1", at, victim.Restarts)
		}
		if victim.WastedTime <= 0 {
			t.Errorf("crash at %v: wasted time = %v, want > 0", at, victim.WastedTime)
		}
		var es EngineStats
		p := build()
		p.Engine = &es
		mustRunCluster(t, p)
		aborts += es.TenantAborts
		if es.TenantRestarts != 1 {
			t.Errorf("crash at %v: engine restarts = %d", at, es.TenantRestarts)
		}
	}
	if aborts == 0 {
		t.Errorf("no kernel or flow was ever aborted across the crash sweep")
	}
}

// TestCheckpointBeatsRestart: with a crash late in the run, periodic
// checkpointing must waste less re-executed work than restarting from
// scratch, and its snapshots must appear in the flow/wear accounting.
func TestCheckpointBeatsRestart(t *testing.T) {
	iters := 6
	H := makespanOf(t, faultTestParams(t, nil, 0, iters))
	plan := &FaultPlan{Crashes: []CrashFault{{Tenant: 0, At: units.Time(int64(H) * 3 / 4), RepairAfter: units.Duration(H / 20)}}}

	restart := mustRunCluster(t, faultTestParams(t, plan, 0, iters)())
	ckpt := mustRunCluster(t, faultTestParams(t, plan, 1, iters)())

	rv, cv := restart.Tenants[0], ckpt.Tenants[0]
	if rv.Restarts != 1 || cv.Restarts != 1 {
		t.Fatalf("restarts: restart=%d checkpoint=%d, want 1 and 1", rv.Restarts, cv.Restarts)
	}
	if cv.CheckpointWrites == 0 || cv.CheckpointBytes == 0 {
		t.Errorf("checkpoint run wrote no snapshots: writes=%d bytes=%v", cv.CheckpointWrites, cv.CheckpointBytes)
	}
	if rv.CheckpointWrites != 0 {
		t.Errorf("restart run wrote %d snapshots", rv.CheckpointWrites)
	}
	if cv.WastedTime >= rv.WastedTime {
		t.Errorf("checkpoint wasted %v, restart wasted %v — checkpoint should lose less", cv.WastedTime, rv.WastedTime)
	}
	if units.Duration(ckpt.Makespan) >= 2*units.Duration(restart.Makespan) {
		t.Errorf("checkpoint makespan %v implausibly above restart %v", ckpt.Makespan, restart.Makespan)
	}
}

// TestLinkDegradeSlowsVictim: halving a pressured tenant's PCIe bandwidth
// for the whole run must stretch the makespan; a window that closes before
// the job arrives must restore the exact original capacity (byte-identical
// run).
func TestLinkDegradeSlowsVictim(t *testing.T) {
	build := faultTestParams(t, nil, 0, 0)
	clean := mustRunCluster(t, build())
	H := units.Time(clean.Makespan)

	slow := faultTestParams(t, &FaultPlan{
		Degrades: []LinkDegrade{{Tenant: 0, From: 1, Until: 4 * H, Factor: 0.1}},
	}, 0, 0)
	degraded := mustRunCluster(t, slow())
	if degraded.Makespan <= clean.Makespan {
		t.Errorf("degraded makespan %v <= clean %v", degraded.Makespan, clean.Makespan)
	}

	// A degrade window opening and closing before any flow exists must be
	// invisible: capacity restores to the exact original float.
	ghost := faultTestParams(t, &FaultPlan{
		Degrades: []LinkDegrade{{Tenant: 1, From: 1, Until: 2, Factor: 0.5}},
	}, 0, 0)
	gp := ghost()
	gp.Tenants[1].ArrivalTime = 10 * units.Millisecond
	cp := build()
	cp.Tenants[1].ArrivalTime = 10 * units.Millisecond
	if g, c := mustRunCluster(t, gp), mustRunCluster(t, cp); !reflect.DeepEqual(g, c) {
		t.Errorf("closed pre-arrival degrade window perturbed the run")
	}
}

// TestDieFailureDegradesArray: killing flash dies mid-run must slow a
// flash-bound cluster (bandwidth scales with surviving dies) and must be
// reflected by the device's dead-chip accounting.
func TestDieFailureDegradesArray(t *testing.T) {
	build := faultTestParams(t, nil, 0, 0)
	clean := mustRunCluster(t, build())
	H := units.Time(clean.Makespan)

	failed := faultTestParams(t, &FaultPlan{DieFails: []DieFail{{At: H / 8, Dies: 6}}}, 0, 0)
	res := mustRunCluster(t, failed())
	if res.Makespan <= clean.Makespan {
		t.Errorf("die-failed makespan %v <= clean %v", res.Makespan, clean.Makespan)
	}
}

// TestFaultPlanValidateAndRoundTrip pins the plan serializer and its
// validation errors.
func TestFaultPlanValidateAndRoundTrip(t *testing.T) {
	plan := &FaultPlan{
		Crashes:  []CrashFault{{Tenant: 1, At: 5, RepairAfter: -1}, {Tenant: 0, At: 9, RepairAfter: 3}},
		Degrades: []LinkDegrade{{Tenant: 2, From: 1, Until: 7, Factor: 0.5}},
		DieFails: []DieFail{{At: 4, Dies: 1}},
	}
	if err := plan.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFaultPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, got) {
		t.Errorf("round trip changed the plan:\nin:  %+v\nout: %+v", plan, got)
	}

	for name, bad := range map[string]*FaultPlan{
		"tenant-oob":     {Crashes: []CrashFault{{Tenant: 3, At: 1}}},
		"negative-time":  {Crashes: []CrashFault{{Tenant: 0, At: -1}}},
		"empty-window":   {Degrades: []LinkDegrade{{Tenant: 0, From: 5, Until: 5, Factor: 0.5}}},
		"factor-zero":    {Degrades: []LinkDegrade{{Tenant: 0, From: 1, Until: 2, Factor: 0}}},
		"factor-above-1": {Degrades: []LinkDegrade{{Tenant: 0, From: 1, Until: 2, Factor: 1.5}}},
		"zero-dies":      {DieFails: []DieFail{{At: 1, Dies: 0}}},
	} {
		if err := bad.Validate(3); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}

	if _, err := LoadFaultPlan(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Errorf("unknown field accepted")
	}
	if mtbf := plan.MTBF(3); mtbf != 9*3/2 {
		t.Errorf("MTBF = %v, want %v", mtbf, 9*3/2)
	}
	if (&FaultPlan{}).MTBF(3) != 0 {
		t.Errorf("crash-free plan has nonzero MTBF")
	}
}

// FuzzFaultPlan: the loader must never panic and must only accept plans
// that re-serialize losslessly.
func FuzzFaultPlan(f *testing.F) {
	var buf bytes.Buffer
	seed := &FaultPlan{
		Crashes:  []CrashFault{{Tenant: 0, At: 3, RepairAfter: 2}},
		Degrades: []LinkDegrade{{Tenant: 1, From: 1, Until: 9, Factor: 0.25}},
		DieFails: []DieFail{{At: 2, Dies: 4}},
	}
	if err := seed.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"crashes":[{"tenant":0,"at":1,"repair_after":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadFaultPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(-1); err != nil {
			t.Fatalf("loader returned an invalid plan: %v", err)
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		back, err := LoadFaultPlan(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("save/load not lossless:\nfirst:  %+v\nsecond: %+v", p, back)
		}
	})
}
