package gpu

import (
	"strings"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/units"
)

// leakyPolicy is a testPolicy that takes one host-pool grant at its first
// boundary and never releases it: a ReserveFor whose ReleaseFor was skipped.
type leakyPolicy struct {
	testPolicy
	leaked bool
}

func (p *leakyPolicy) AtBoundary(iter, b int) {
	if !p.leaked {
		p.leaked = p.m.host.ReserveFor(p.m.idx, units.MB)
	}
}

// TestCheckCatchesLeakedHostGrant: a host-pool grant no tensor accounts
// for fails the checked run's ledger check, while the unchecked run
// completes without noticing.
func TestCheckCatchesLeakedHostGrant(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	build := func() ClusterParams {
		cfg := testCfg(a.PeakAlive()/2, 64*units.MB)
		return ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a, Policy: &testPolicy{name: "t0"}, Config: cfg},
				{Analysis: a, Policy: &leakyPolicy{testPolicy: testPolicy{name: "leaky"}}, Config: cfg},
			},
			Shared: cfg,
		}
	}
	mustRunCluster(t, build())
	p := build()
	p.Check = true
	if _, err := RunCluster(p); err == nil || !strings.Contains(err.Error(), "tenant 1 holds a 1.0MB host-pool grant") {
		t.Fatalf("checked run with a leaked host grant: err = %v, want the host ledger violation", err)
	}
}

// TestCheckCatchesLostKVBlock: a server block that leaves the free pool
// without joining any request fails the checked serving run's ledger check.
func TestCheckCatchesLostKVBlock(t *testing.T) {
	p := churnParams(60, 1, tieredKV())
	lost := false
	p.audit = func(q *infReq) {
		if !lost && q.state == reqPrefill {
			q.srv.free--
			lost = true
		}
	}
	p.Check = true
	if _, err := RunInference(p); err == nil || !strings.Contains(err.Error(), "-block pool") {
		t.Fatalf("checked run with a lost KV block: err = %v, want the block-pool violation", err)
	}
}
