package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"g10sim/internal/flownet"
	"g10sim/internal/models"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
)

// runEngineModes executes the same cluster parameters under the production
// lazy engine (deferred flow settlement, heap-driven reap, epoch-based TLB
// shootdowns) and under the retained eager references
// (ForceEagerProgressForTest + ForceReferenceTLBForTest), across both
// cluster drivers. All results must agree bit for bit:
// laziness is an accounting strategy, never a semantic one.
func runEngineModes(t *testing.T, build func() ClusterParams) {
	t.Helper()
	lazyEv, lazyPoll := runBothDrivers(t, build)

	flownet.ForceEagerProgressForTest(true)
	uvm.ForceReferenceTLBForTest(true)
	defer func() {
		flownet.ForceEagerProgressForTest(false)
		uvm.ForceReferenceTLBForTest(false)
	}()
	eagerEv, eagerPoll := runBothDrivers(t, build)
	flownet.ForceEagerProgressForTest(false)
	uvm.ForceReferenceTLBForTest(false)

	// Third engine mode: the lazy engine with the reference max-min fill
	// (full scan loops, no fill trace, no frontier refills) — pins the
	// heap-driven fill and the frontier refill across models, policies,
	// and drivers.
	flownet.ForceReferenceFillForTest(true)
	defer flownet.ForceReferenceFillForTest(false)
	refFillEv, refFillPoll := runBothDrivers(t, build)
	flownet.ForceReferenceFillForTest(false)

	if !reflect.DeepEqual(lazyEv, eagerEv) {
		t.Errorf("lazy engine diverged from eager reference (event driver):\nlazy:  %+v\neager: %+v", lazyEv, eagerEv)
	}
	if !reflect.DeepEqual(lazyPoll, eagerPoll) {
		t.Errorf("lazy engine diverged from eager reference (polling driver):\nlazy:  %+v\neager: %+v", lazyPoll, eagerPoll)
	}
	if !reflect.DeepEqual(lazyEv, refFillEv) {
		t.Errorf("heap fill diverged from reference fill (event driver):\nheap: %+v\nref:  %+v", lazyEv, refFillEv)
	}
	if !reflect.DeepEqual(lazyPoll, refFillPoll) {
		t.Errorf("heap fill diverged from reference fill (polling driver):\nheap: %+v\nref:  %+v", lazyPoll, refFillPoll)
	}
}

// TestLazyEngineMatchesEagerReference pins the tentpole invariant: the lazy
// engine (segment-log flow settlement, completion-heap reap, epoch TLB,
// tombstoned page-table clears) reproduces the eager per-event reference
// bit for bit — under memory pressure, strict policies, dynamic arrivals,
// and both cluster drivers.
func TestLazyEngineMatchesEagerReference(t *testing.T) {
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
		{"staggered-arrivals", 24 * units.MB, false,
			[]units.Time{0, 5 * units.Millisecond, 20 * units.Millisecond}},
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
			runEngineModes(t, build)
		})
	}
}

// engineStatsFor runs an n-tenant scaling cluster and reports its engine
// counters.
func engineStatsFor(t *testing.T, n int) EngineStats {
	t.Helper()
	var es EngineStats
	p := scalingParams(t, n)
	p.Engine = &es
	mustRunCluster(t, p)
	return es
}

// TestEngineStats asserts the numbers behind the O(events) claim. The
// counters must be populated; the lazy engine must never do more
// per-flow accounting work than the eager reference and must examine far
// fewer flows for completion (heap candidates vs full scans); and the
// per-event bookkeeping — reap scans and rate recomputes — must scale
// near-linearly in tenant count. ProgressTouches carries no scaling
// assertion: on a fully-coupled workload every event legitimately
// re-rates every flow sharing the bottleneck, so the (flow, segment)
// replay count matches the eager engine's; the lazy win there is
// deferral and the aggregate served-bytes fold, not fewer touches.
func TestEngineStats(t *testing.T) {
	es8 := engineStatsFor(t, 8)
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"FlowRecomputes", es8.FlowRecomputes},
		{"ProgressTouches", es8.ProgressTouches},
		{"ReapScans", es8.ReapScans},
		{"TLBEpochShootdowns", es8.TLBEpochShootdowns},
	} {
		if c.v <= 0 {
			t.Errorf("%s = %d, want > 0", c.name, c.v)
		}
	}

	// Same workload under the eager reference: lazy settlement replays
	// each (flow, segment) pair at most once, so it can never exceed the
	// eager per-event loop; heap-driven reap examines only completion
	// candidates where the scanning reference pays the whole active set.
	flownet.ForceEagerProgressForTest(true)
	var eager EngineStats
	p := scalingParams(t, 8)
	p.Engine = &eager
	mustRunCluster(t, p)
	flownet.ForceEagerProgressForTest(false)
	if es8.ProgressTouches > eager.ProgressTouches {
		t.Errorf("lazy ProgressTouches %d exceed eager reference %d",
			es8.ProgressTouches, eager.ProgressTouches)
	}
	if es8.ReapScans >= eager.ReapScans {
		t.Errorf("lazy ReapScans %d not below eager reference %d",
			es8.ReapScans, eager.ReapScans)
	}
	t.Logf("8 tenants: touches lazy=%d eager=%d; reap scans lazy=%d eager=%d (%.1fx)",
		es8.ProgressTouches, eager.ProgressTouches, es8.ReapScans, eager.ReapScans,
		float64(eager.ReapScans)/float64(es8.ReapScans))

	// Near-linear scaling of the per-event bookkeeping: 4x the tenants may
	// cost at most ~6x the reap scans and recomputes (quadratic would be
	// ~16x).
	es32 := engineStatsFor(t, 32)
	if lim := 6 * es8.ReapScans; es32.ReapScans > lim {
		t.Errorf("32-tenant ReapScans %d exceed 1.5x linear extrapolation %d of 8-tenant %d",
			es32.ReapScans, lim, es8.ReapScans)
	}
	if lim := 6 * es8.FlowRecomputes; es32.FlowRecomputes > lim {
		t.Errorf("32-tenant FlowRecomputes %d exceed 1.5x linear extrapolation %d of 8-tenant %d",
			es32.FlowRecomputes, lim, es8.FlowRecomputes)
	}
	t.Logf("reap scans: 8 tenants = %d, 32 tenants = %d; recomputes: %d vs %d",
		es8.ReapScans, es32.ReapScans, es8.FlowRecomputes, es32.FlowRecomputes)
}

// TestEngineStatsAccumulate: the out-parameter adds across runs (a session
// sums a whole suite into one EngineStats).
func TestEngineStatsAccumulate(t *testing.T) {
	var es EngineStats
	p := scalingParams(t, 2)
	p.Engine = &es
	mustRunCluster(t, p)
	first := es
	for j := range p.Tenants {
		p.Tenants[j].Policy = &testPolicy{name: fmt.Sprintf("t%d", j)}
	}
	mustRunCluster(t, p)
	if es.ProgressTouches != 2*first.ProgressTouches {
		t.Errorf("ProgressTouches after second run = %d, want %d (accumulating)",
			es.ProgressTouches, 2*first.ProgressTouches)
	}
}
