package gpu

import (
	"fmt"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/units"
)

// TestLazyEngineUnderCheck holds the lazy engine (segment-log flow
// settlement, completion-heap reap, per-tensor PTEs) to its invariants
// under Check — the max-min certificate, the pool and flash ledgers, PTE
// coherence, TLB coherence at every remap — under memory pressure,
// strict policies and dynamic arrivals.
func TestLazyEngineUnderCheck(t *testing.T) {
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
			runChecked(t, build)
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
// counters must be populated, and the per-event bookkeeping — reap scans
// and rate recomputes — must scale near-linearly in tenant count.
// ProgressTouches carries no scaling assertion: on a fully-coupled
// workload every event legitimately re-rates every flow sharing the
// bottleneck, so each (flow, segment) pair is replayed; the lazy win there
// is deferral and O(1) progress, not fewer touches.
func TestEngineStats(t *testing.T) {
	es8 := engineStatsFor(t, 8)
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"FlowRecomputes", es8.FlowRecomputes},
		{"ProgressTouches", es8.ProgressTouches},
		{"ReapScans", es8.ReapScans},
	} {
		if c.v <= 0 {
			t.Errorf("%s = %d, want > 0", c.name, c.v)
		}
	}

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
