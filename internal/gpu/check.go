// Per-run invariant checking: ClusterParams.Check and InferenceParams.Check.
//
// The event driver steps only woken tenants, the flow network derives rates
// through several fill paths, and the host pool and KV block pools keep
// their ledgers incrementally. Rather than keep a second copy of any of
// them as an oracle, a checked run asserts, at every clock advance (once
// the driver's step rounds have drained and before the clock moves) and
// once more when the last tenant finishes, the invariants those fast
// paths must preserve:
//
//   - wake completeness: stepping a live tenant that was not woken is a
//     no-op, which is what makes skipping it sound;
//   - the max-min certificate of the current rates
//     (flownet.Network.CheckMaxMin);
//   - pool ledgers: each training tenant's host-pool grant equals the host
//     bytes its tensor states account for, and the grants sum to the
//     pool's use, within capacity; each serving server's free blocks plus
//     its requests' resident blocks equal its capacity, and the host tier
//     holds exactly the swapped-out spans;
//   - the flash ledger: the flash pages the training tenants' tensor ranges
//     and checkpoint ranges hold sum to the array's allocated pages,
//     within its logical capacity;
//   - capacity: no tenant's GPU use exceeds its GPU capacity;
//   - PTE coherence: each tensor's PTE is the translation its state
//     implies, so no placement change skipped Machine.remap;
//   - TLB coherence: right after a tensor's translation changes, its TLB
//     holds no entry for the tensor. Machine.remap asserts this at the
//     change itself and keeps the first violation for the next check.
//
// A checked cluster run also ends with the flash array's own FTL check
// (ssd.Device.CheckConsistency: forward and reverse page maps agree, and
// per-block valid counts match them). It walks every page the run wrote,
// so it runs once, after the last tenant finishes, not at every advance.
//
// The first violation fails the run with an error. A run that passes is
// the run an unchecked one would have been: the wake check's extra steps
// are no-ops by what it asserts, and the certificate's rate flush is the
// one the next NextEvent would have made.

package gpu

import (
	"fmt"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
)

// checkInvariants asserts the invariants above on the driver's tenants at
// the current clock; ledgers is the run's own pool and ledger check
// (checkMachines for a cluster, infEngine.checkLedgers for serving).
func checkInvariants(net *flownet.Network, tenants []tenant, ledgers func() error) error {
	if err := net.CheckMaxMin(); err != nil {
		return fmt.Errorf("gpu: check at %v: %w", net.Now(), err)
	}
	for _, t := range tenants {
		if err := checkWake(t, net.Now()); err != nil {
			return fmt.Errorf("gpu: check at %v: tenant %d: %w", net.Now(), t.core().idx, err)
		}
	}
	if err := ledgers(); err != nil {
		return fmt.Errorf("gpu: check at %v: %w", net.Now(), err)
	}
	return nil
}

// tenantDigest is the state a step can change: enough to tell a no-op step
// from one that made progress. It is a comparable struct so the wake check
// compares without formatting.
type tenantDigest struct {
	phase    stepPhase
	iter, k  int
	execEnd  units.Time
	inflight int
	gpuUsed  units.Bytes
	hostUsed units.Bytes
	ledger   traffic
	flows    int64 // the network's fresh flow allocations

	// Serving requests.
	state             reqState
	blocks, gpu, host int
	granted, homed    bool
	free              int // the request's server's free blocks
}

// digest records r's state in d, writing fields in place: returning the
// struct by value costs a block copy per call, and a checked serving run
// digests every waiting request at every clock advance.
func (r *runner) digest(d *tenantDigest) {
	m := r.m
	d.phase, d.execEnd = r.phase, r.execEnd
	d.iter, d.k, d.inflight = r.iter, r.k, m.inflight
	d.gpuUsed, d.hostUsed, d.ledger = m.gpuUsed, m.host.Used(), m.ledger
	d.flows = m.net.FlowAllocs()
}

// digest records q's state in d, like runner.digest.
func (q *infReq) digest(d *tenantDigest) {
	d.phase, d.execEnd = q.phase, q.execEnd
	d.state, d.blocks, d.gpu, d.host = q.state, q.blocks, q.gpu, q.host
	d.granted, d.homed, d.free = q.granted, q.homed, q.srv.free
}

// checkWake steps a live tenant the driver did not wake and reports a
// missed wake if the step changed anything. A tenant whose kernel is still
// running is skipped: its step only compares the clock with execEnd.
func checkWake(t tenant, now units.Time) error {
	s := t.core()
	switch {
	case s.phase == phaseDone, s.phase == phasePending, s.phase == phaseCrashed,
		s.phase == phaseExec && now < s.execEnd:
		return nil
	}
	var before, after tenantDigest
	t.digest(&before)
	t.step()
	if s.err != nil {
		return s.err
	}
	if t.digest(&after); after != before {
		return fmt.Errorf("stepping it un-woken moved %+v to %+v (missed wake)", before, after)
	}
	return nil
}

// hostHeld is the host-pool grant st's tenant holds for it: the tensor's
// size while it is host-resident, evicting to host (reserved when the
// eviction began) or fetching from host (released when the fetch commits).
func (st *tensorState) hostHeld() units.Bytes {
	mig := st.mig
	switch {
	case mig == nil && st.loc == uvm.InHost,
		mig != nil && mig.kind == uvm.PreEvict && mig.dst == uvm.InHost,
		mig != nil && mig.kind != uvm.PreEvict && mig.src == uvm.InHost:
		return st.t.Size
	}
	return 0
}

// checkMachines checks the training tenants' PTEs, shared host pool and
// flash array against their tensor states, their GPU use against capacity,
// and reports the first TLB coherence violation a remap recorded.
func checkMachines(tenants []*runner) error {
	pool, dev := tenants[0].m.host, tenants[0].m.sh.dev
	var granted units.Bytes
	var flash int64
	for _, r := range tenants {
		m := r.m
		if m.checkErr != nil {
			return m.checkErr
		}
		var held units.Bytes
		for i := range m.states {
			st := &m.states[i]
			if want := st.translation(); st.pte != want {
				return fmt.Errorf("tenant %d: %s has PTE %+v, its state implies %+v", m.idx, st.t.Name, st.pte, want)
			}
			held += st.hostHeld()
			if st.hasRng {
				flash += st.flash.Count
			}
		}
		if r.hasCkptRng {
			flash += r.ckptRng.Count
		}
		if got := pool.OwnedBy(m.idx); got != held {
			return fmt.Errorf("tenant %d holds a %v host-pool grant for %v of host-resident tensors", m.idx, got, held)
		}
		granted += held
		if m.gpuUsed > m.cfg.GPUCapacity {
			return fmt.Errorf("tenant %d uses %v of GPU memory over capacity %v", m.idx, m.gpuUsed, m.cfg.GPUCapacity)
		}
	}
	if used := pool.Used(); used != granted || used > pool.Capacity() {
		return fmt.Errorf("host pool uses %v of %v, tenants hold %v", used, pool.Capacity(), granted)
	}
	if alloc := dev.AllocatedPages(); alloc != flash || alloc > dev.LogicalPages() {
		return fmt.Errorf("flash array has %d of %d logical pages allocated, tenants hold %d", alloc, dev.LogicalPages(), flash)
	}
	return nil
}

// checkLedgers checks every server's block pool and the host tier against
// the requests holding them.
func (e *infEngine) checkLedgers() error {
	var swapped int
	for _, srv := range e.servers {
		held := srv.free
		for _, q := range srv.active {
			held += q.gpu
			swapped += q.host
		}
		for i := range srv.admit {
			swapped += srv.admit[i].q.host
		}
		if srv.free < 0 || held != srv.capacity {
			return fmt.Errorf("server %d: %d free blocks and %d resident do not make its %d-block pool",
				srv.idx, srv.free, held-srv.free, srv.capacity)
		}
	}
	if used, want := e.host.Used(), units.Bytes(swapped)*e.p.BlockBytes; used != want || used > e.host.Capacity() {
		return fmt.Errorf("host tier uses %v of %v for %d swapped-out blocks", used, e.host.Capacity(), swapped)
	}
	return nil
}
