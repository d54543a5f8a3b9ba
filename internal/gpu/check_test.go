package gpu

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"g10sim/internal/dnn"
	"g10sim/internal/models"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
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

// flashLeakPolicy is a testPolicy that allocates one flash page at its
// first boundary and never frees it: a range no tensor or checkpoint holds.
type flashLeakPolicy struct {
	testPolicy
	leaked bool
}

func (p *flashLeakPolicy) AtBoundary(iter, b int) {
	if !p.leaked {
		_, err := p.m.dev.Alloc(1)
		p.leaked = err == nil
	}
}

// staleReversePolicy is a testPolicy that, at its first boundary, makes
// the shared flash array's FTL leave the reverse entry of every page it
// invalidates from then on mapped.
type staleReversePolicy struct {
	testPolicy
	planted bool
}

func (p *staleReversePolicy) AtBoundary(iter, b int) {
	if !p.planted {
		p.m.sh.dev.InjectStaleReverse()
		p.planted = true
	}
}

// staleTLBPolicy is a testPolicy that, at the first boundary of the second
// iteration, re-inserts the GPU translation every unmapped tensor had
// before its free: TLB entries a skipped shootdown would have left behind,
// found when each tensor is allocated again.
type staleTLBPolicy struct {
	testPolicy
	planted bool
}

func (p *staleTLBPolicy) AtBoundary(iter, b int) {
	if p.planted || iter == 0 {
		return
	}
	for i := range p.m.states {
		if st := &p.m.states[i]; st.loc == uvm.Unmapped {
			p.m.tlb.Insert(st.va, uvm.PTE{Loc: uvm.InGPU, Addr: st.va >> 21})
		}
	}
	p.planted = true
}

// unmappedFetchPolicy is a testPolicy whose demand fetches commit without
// a remap: it remembers each missed tensor's PTE before the fetch and, at
// the next boundary, puts it back on every such tensor that has landed in
// GPU memory, leaving the PTE a skipped remap at fetch commit would leave.
type unmappedFetchPolicy struct {
	testPolicy
	before map[int]uvm.PTE
}

func (p *unmappedFetchPolicy) OnMiss(k int, t *dnn.Tensor) {
	if pte := p.m.states[t.ID].pte; pte.Loc == uvm.InHost || pte.Loc == uvm.InFlash {
		p.before[t.ID] = pte
	}
	p.testPolicy.OnMiss(k, t)
}

func (p *unmappedFetchPolicy) AtBoundary(iter, b int) {
	for id, pte := range p.before {
		if st := &p.m.states[id]; st.loc == uvm.InGPU && st.mig == nil {
			st.pte = pte
			delete(p.before, id)
		}
	}
}

// checkCatches runs a two-tenant cluster whose tenant 1 runs the policy
// newPol builds (a fresh one per run: the mutant policies latch), and
// asserts that the unchecked run completes and the checked run fails with
// an error containing want. Unless want is the end-of-run check's, the
// violation must be caught at a clock advance before the unchecked run's
// makespan: by the per-advance scan of the machines the driver touched,
// not only by the full scan that closes the run.
func checkCatches(t *testing.T, newPol func() Policy, want string) {
	t.Helper()
	a := analyze(t, models.TinyCNN(128), 200)
	build := func() ClusterParams {
		cfg := testCfg(a.PeakAlive()/2, 64*units.MB)
		return ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a, Policy: &testPolicy{name: "t0"}, Config: cfg},
				{Analysis: a, Policy: newPol(), Config: cfg},
			},
			Shared: cfg,
		}
	}
	ref := mustRunCluster(t, build())
	p := build()
	p.Check = true
	_, err := RunCluster(p)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("checked run: err = %v, want the violation %q", err, want)
	}
	if strings.Contains(want, "check at end of run") {
		return
	}
	at, ok := checkedAt(err)
	if !ok || at >= ref.Makespan {
		t.Fatalf("checked run: %v; want it caught at a clock advance before the makespan %v", err, ref.Makespan)
	}
	t.Logf("caught at %v of a %v run", at, ref.Makespan)
}

// checkedAt parses the clock from a check's "check at <t>:" error.
func checkedAt(err error) (units.Time, bool) {
	m := regexp.MustCompile(`check at ([0-9.]+)(ns|µs|ms|s):`).FindStringSubmatch(err.Error())
	if m == nil {
		return 0, false
	}
	v, perr := strconv.ParseFloat(m[1], 64)
	if perr != nil {
		return 0, false
	}
	unit := map[string]units.Duration{"ns": units.Nanosecond, "µs": units.Microsecond, "ms": units.Millisecond, "s": units.Second}[m[2]]
	return units.Time(v * float64(unit)), true
}

// TestCheckCatchesLeakedHostGrant: a host-pool grant no tensor accounts
// for fails the checked run's ledger check, while the unchecked run
// completes without noticing.
func TestCheckCatchesLeakedHostGrant(t *testing.T) {
	checkCatches(t, func() Policy { return &leakyPolicy{testPolicy: testPolicy{name: "leaky"}} },
		"tenant 1 holds a 1.0MB host-pool grant")
}

// TestCheckCatchesLeakedFlashRange: a flash range no tensor or checkpoint
// holds fails the checked run's flash ledger, while the unchecked run
// completes without noticing.
func TestCheckCatchesLeakedFlashRange(t *testing.T) {
	checkCatches(t, func() Policy { return &flashLeakPolicy{testPolicy: testPolicy{name: "leaky"}} },
		"flash array has")
}

// TestCheckCatchesStaleFTLReverse: an FTL that leaves a page's reverse
// entry mapped when it invalidates the page fails the checked run's
// end-of-run FTL consistency check, while the unchecked run completes.
func TestCheckCatchesStaleFTLReverse(t *testing.T) {
	checkCatches(t, func() Policy { return &staleReversePolicy{testPolicy: testPolicy{name: "stale"}} },
		"check at end of run: ssd: page")
}

// TestCheckCatchesStaleTLBEntry: a TLB entry that survives its tensor's
// remap fails the checked run's coherence check at that remap, while the
// unchecked run completes (reading the stale entry as a hit).
func TestCheckCatchesStaleTLBEntry(t *testing.T) {
	checkCatches(t, func() Policy { return &staleTLBPolicy{testPolicy: testPolicy{name: "stale"}} },
		"tenant 1: TLB still caches remapped")
}

// TestCheckCatchesUnmappedFetch: a fetch that commits without updating
// its tensor's PTE fails the checked run's PTE coherence check, while the
// unchecked run completes (the stale PTE only feeds the TLB).
func TestCheckCatchesUnmappedFetch(t *testing.T) {
	checkCatches(t, func() Policy {
		return &unmappedFetchPolicy{testPolicy: testPolicy{name: "unmapped"}, before: map[int]uvm.PTE{}}
	}, "its state implies {Loc:gpu")
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
