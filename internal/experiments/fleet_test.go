package experiments

import (
	"reflect"
	"testing"

	"g10sim/internal/adapt"
	"g10sim/internal/gpu"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/units"
)

// TestFleetDeterministicAcrossWorkers: the fleet study is a pure function
// of its inputs at any worker-pool size — the arrival trace is fixed-seed
// and every cluster simulates once behind the single-flight cache.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []FleetRow {
		s := NewSession(Options{Short: true, Workers: workers})
		rows, err := Fleet(s)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fleet rows differ between Workers=1 and Workers=8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("fleet produced no rows")
	}
	for _, row := range serial {
		if row.MakespanSec <= 0 {
			t.Errorf("%s/%d: non-positive makespan %v", row.Policy, row.Tenants, row.MakespanSec)
		}
		if row.FailedTenants == 0 && row.P50Slowdown < 1-1e-9 {
			t.Errorf("%s/%d: median slowdown %v below 1 (faster than dedicated slice)",
				row.Policy, row.Tenants, row.P50Slowdown)
		}
	}
}

// TestFleetTraceFixedSeed: the arrival trace is deterministic, ordered,
// and cycles the catalogue.
func TestFleetTraceFixedSeed(t *testing.T) {
	s := NewSession(Options{Short: true})
	t1, err := s.fleetTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewSession(Options{Short: true}).fleetTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Error("fleet trace differs across sessions")
	}
	prev := -1.0
	for i, j := range t1 {
		if j.ArrivalSec < prev {
			t.Errorf("job %d arrives at %v before predecessor %v", i, j.ArrivalSec, prev)
		}
		prev = j.ArrivalSec
		if want := fleetModels[i%len(fleetModels)]; j.Model != want {
			t.Errorf("job %d model %s, want %s", i, j.Model, want)
		}
	}
	if t1[0].ArrivalSec != 0 {
		t.Errorf("first job arrives at %v, want 0", t1[0].ArrivalSec)
	}
	if t1[len(t1)-1].ArrivalSec <= 0 {
		t.Error("arrival trace never advances")
	}
}

// TestEventDriverMatchesPollingEveryModelPolicy is the experiments-level
// checked run: for every built-in model under every policy, a two-tenant
// co-simulation — one tenant arriving mid-simulation — must pass
// gpu.ClusterParams.Check (wake completeness, the max-min certificate, the
// host-pool and flash ledgers, PTE coherence and GPU capacity at every
// clock advance).
func TestEventDriverMatchesPollingEveryModelPolicy(t *testing.T) {
	s := NewSession(Options{Short: true})
	for _, model := range (Options{}).modelSet() {
		for _, polName := range PolicyNames {
			model, polName := model, polName
			t.Run(model+"/"+polName, func(t *testing.T) {
				a, err := s.Analysis(model, shortBatch[model])
				if err != nil {
					t.Fatal(err)
				}
				cfg := scaledConfig(a)
				p := gpu.ClusterParams{Shared: cfg, Check: true, Plans: &s.plans}
				p.Shared.HostCapacity = cfg.HostCapacity * 3 / 2
				for i := 0; i < 2; i++ {
					pol, err := NewPolicy(polName)
					if err != nil {
						t.Fatal(err)
					}
					tenant := gpu.ClusterTenant{Analysis: a, Policy: pol, Config: cfg}
					if i == 1 {
						tenant.ArrivalTime = 50 * units.Millisecond
					}
					p.Tenants = append(p.Tenants, tenant)
				}
				if _, err := gpu.RunCluster(p); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSessionTenantsExposePlanAndController: a cluster built through the
// Session runs the policies NewPolicy returns, not wrappers around them.
// After the run every G10 tenant exposes its plan — including tenants whose
// job the session had already planned in an earlier run, which share that
// plan — and every adaptive tenant exposes its controller.
func TestSessionTenantsExposePlanAndController(t *testing.T) {
	s := NewSession(Options{Short: true})
	jobs, err := s.fleetTrace(4)
	if err != nil {
		t.Fatal(err)
	}
	planOf := map[*planner.Plan]bool{}
	for _, polName := range []string{"G10", "G10-Adaptive"} {
		p, err := s.fleetParams(polName, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunCluster("tenant-ifaces/"+polName, func() (gpu.ClusterParams, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
		for i, tn := range p.Tenants {
			pl, ok := tn.Policy.(policy.Planner)
			if !ok {
				t.Fatalf("%s tenant %d: %T does not implement policy.Planner", polName, i, tn.Policy)
			}
			plan := pl.Plan()
			if plan == nil {
				t.Fatalf("%s tenant %d: nil plan after the run", polName, i)
			}
			if polName == "G10" {
				planOf[plan] = true
			} else if !planOf[plan] {
				t.Errorf("%s tenant %d: planned again instead of sharing the session's plan", polName, i)
			}
			if polName == "G10-Adaptive" {
				if _, ok := tn.Policy.(interface{ Controller() *adapt.Controller }); !ok {
					t.Errorf("%s tenant %d: %T exposes no Controller", polName, i, tn.Policy)
				}
			}
		}
	}
}
