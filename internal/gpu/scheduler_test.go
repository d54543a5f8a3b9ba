package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
)

// runChecked runs the cluster build describes under Check and fails unless
// every invariant holds at every clock advance. A run that passes is the
// run an unchecked one would have been (see check.go);
// TestTenantsUnderCheck pins that explicitly.
func runChecked(t testing.TB, build func() ClusterParams) ClusterResult {
	t.Helper()
	p := build()
	p.Check = true
	return mustRunCluster(t, p)
}

func mustRunCluster(t testing.TB, p ClusterParams) ClusterResult {
	t.Helper()
	res, err := RunCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTenantsUnderCheck runs the event-driven scheduler under Check
// — wake completeness, the max-min certificate, pool ledgers and GPU
// capacity at every clock advance — on heterogeneous tenants, tight and
// roomy host pools, strict (FlashNeuron-style) and UVM policies, and
// dynamic arrivals. It is the one explicit differential: the checked run
// must match the unchecked one exactly, results and engine counters alike.
func TestTenantsUnderCheck(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hostCap  units.Bytes
		strict   bool
		arrivals []units.Time
	}{
		{"tight-host", 4 * units.MB, false, nil},
		{"mid-host", 24 * units.MB, false, nil},
		{"roomy-host", 256 * units.MB, false, nil},
		{"strict", 256 * units.MB, true, nil},
		{"staggered-arrivals", 24 * units.MB, false, []units.Time{0, 5 * units.Millisecond, 20 * units.Millisecond}},
		{"same-time-arrivals", 8 * units.MB, false, []units.Time{0, 10 * units.Millisecond, 10 * units.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a1 := analyze(t, models.TinyCNN(128), 200)
			a2 := analyze(t, models.TinyMLP(64), 50)
			build := func() ClusterParams {
				cfg1 := testCfg(a1.PeakAlive()/2, tc.hostCap)
				cfg2 := testCfg(a2.PeakAlive()/2, tc.hostCap)
				p := ClusterParams{
					Tenants: []ClusterTenant{
						{Analysis: a1, Policy: &testPolicy{name: "t1", strict: tc.strict}, Config: cfg1},
						{Analysis: a2, Policy: &testPolicy{name: "t2"}, Config: cfg2},
						{Analysis: a1, Policy: &testPolicy{name: "t3"}, Config: cfg1},
					},
					Shared: cfg1,
				}
				for i := range tc.arrivals {
					p.Tenants[i].ArrivalTime = tc.arrivals[i]
				}
				return p
			}
			var es, checkedES EngineStats
			p := build()
			p.Engine = &es
			res := mustRunCluster(t, p)
			p = build()
			p.Engine = &checkedES
			p.Check = true
			checked := mustRunCluster(t, p)
			if !reflect.DeepEqual(res, checked) {
				t.Errorf("checked run diverged from the unchecked one:\nunchecked: %+v\nchecked:   %+v", res, checked)
			}
			if es != checkedES {
				t.Errorf("checked run changed the engine counters:\nunchecked: %+v\nchecked:   %+v", es, checkedES)
			}
		})
	}
}

// TestClusterArrivalSemantics: a dynamically arriving job is admitted at
// its arrival time, its span starts there, and its presence perturbs a
// neighbour only after it joins.
func TestClusterArrivalSemantics(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cfg := testCfg(a.PeakAlive()/2, 8*units.MB)
	solo := mustRunCluster(t, ClusterParams{
		Tenants: []ClusterTenant{{Analysis: a, Policy: &testPolicy{name: "solo"}, Config: cfg}},
		Shared:  cfg,
	})
	soloSpan := solo.Spans[0].Duration()

	late := units.Time(soloSpan) * 3 // arrives after tenant 0 finished
	staggered := mustRunCluster(t, ClusterParams{
		Tenants: []ClusterTenant{
			{Analysis: a, Policy: &testPolicy{name: "solo"}, Config: cfg},
			{Analysis: a, Policy: &testPolicy{name: "late"}, Config: cfg, ArrivalTime: late},
		},
		Shared: cfg,
	})
	if got := staggered.Spans[1].Arrival; got != late {
		t.Errorf("late tenant arrival = %v, want %v", got, late)
	}
	if staggered.Spans[1].Finish < late {
		t.Errorf("late tenant finished %v before its arrival %v", staggered.Spans[1].Finish, late)
	}
	// A job arriving after the first finished must not slow it down: the
	// first tenant's result matches its solo run exactly.
	if !reflect.DeepEqual(staggered.Tenants[0], solo.Tenants[0]) {
		t.Errorf("tenant 0 perturbed by a job arriving after it finished:\nwith:    %+v\nwithout: %+v",
			staggered.Tenants[0], solo.Tenants[0])
	}
	// The late tenant runs alone on an aged array: its span must be at
	// least its solo span (GC state can only slow it).
	if staggered.Spans[1].Duration() < soloSpan {
		t.Errorf("late tenant span %v below solo span %v", staggered.Spans[1].Duration(), soloSpan)
	}
	if staggered.Makespan != units.Duration(staggered.Spans[1].Finish) {
		t.Errorf("makespan %v != last finish %v", staggered.Makespan, staggered.Spans[1].Finish)
	}
}

// scalingParams builds an N-tenant cluster for the scaling tests:
// per-tenant GPU pressure forces migrations, the shared host pool scales
// with N so per-tenant behaviour stays comparable across sizes, and each
// tenant replays a slightly perturbed exec trace so kernel boundaries
// interleave instead of coinciding (a fleet's events are not synchronised;
// a scheduler that stepped every tenant would pay for all of them at each).
func scalingParams(t testing.TB, n int) ClusterParams {
	t.Helper()
	a := analyze(t, models.TinyCNN(64), 200)
	cfg := testCfg(a.PeakAlive()/2, 0)
	cfg.HostCapacity = units.Bytes(n) * 64 * units.MB
	p := ClusterParams{Shared: cfg}
	for i := 0; i < n; i++ {
		exec := &profile.Trace{Durations: make([]units.Duration, len(a.Trace.Durations))}
		for k, d := range a.Trace.Durations {
			exec.Durations[k] = d + d*units.Duration(i)/100
		}
		p.Tenants = append(p.Tenants, ClusterTenant{
			Analysis: a, Policy: &testPolicy{name: fmt.Sprintf("t%d", i)}, Config: cfg,
			ExecTrace: exec,
		})
	}
	return p
}

// stepsFor runs an n-tenant cluster and reports the step-machine
// invocations it cost.
func stepsFor(t testing.TB, n int) int64 {
	t.Helper()
	var steps int64
	p := scalingParams(t, n)
	p.StepCount = &steps
	mustRunCluster(t, p)
	return steps
}

// TestClusterScalingNearLinear pins the tentpole property: total
// step-machine iterations grow near-linearly in tenant count (stepping
// every tenant on every event would be quadratic). The
// 64-tenant run may cost at most ~1.5x the linear extrapolation of the
// 16-tenant run.
func TestClusterScalingNearLinear(t *testing.T) {
	s16 := stepsFor(t, 16)
	s64 := stepsFor(t, 64)
	linear := 4 * s16
	if s64 > linear+linear/2 {
		t.Errorf("64-tenant steps %d exceed 1.5x linear extrapolation %d of 16-tenant steps %d",
			s64, linear+linear/2, s16)
	}
	t.Logf("steps: 16 tenants = %d, 64 tenants = %d (linear would be %d)", s16, s64, linear)
}

// BenchmarkClusterScaling measures the cluster engine at fleet sizes; the
// steps/op metric is the scheduler-cost figure the near-linear claim is
// about (ns/op includes the simulation work itself, which also grows with
// tenant count).
func BenchmarkClusterScaling(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			p := scalingParams(b, n)
			var steps int64
			p.StepCount = &steps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh policies per run: they carry per-run state.
				for j := range p.Tenants {
					p.Tenants[j].Policy = &testPolicy{name: fmt.Sprintf("t%d", j)}
				}
				mustRunCluster(b, p)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(steps)/float64(b.N)/float64(n), "steps/tenant")
		})
	}
}
