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
// A training machine's tensor states change only when the driver steps its
// tenant, delivers one of its flows, re-dispatches its queues, admits it,
// or applies a fault, so an advance rescans the tensor states (PTEs, host
// bytes, flash pages) of just the machines the driver touched in one of
// those ways since the last check; every other machine's host bytes and
// flash pages are the ones its last scan cached. The marks need no hook at
// the sites that change state, so a change that skips remap still gets its
// machine rescanned at that advance. The cheap per-machine checks (remap's
// TLB verdict, the host-pool grant against the cached bytes, GPU capacity)
// and the pool and array totals still run for every machine at every
// advance, and a full rescan of every machine closes the run.
//
// A checked cluster run also ends with the flash array's own FTL check
// (ssd.Device.CheckConsistency: forward and reverse page maps agree, and
// per-block valid counts match them). It walks every page the run wrote,
// so it runs once, after the last tenant finishes, not at every advance.
//
// Cost: a checked advance steps every live un-woken tenant once more (the
// wake check; it visits only the admitted tenants that are not done, so a
// serving trace's finished and future requests cost nothing), re-derives
// the max-min certificate over the active flows, and scans the touched
// machines' tensor states. The experiments tests run every golden figure
// checked, at about two to three times the unchecked pass's wall time.
//
// The first violation fails the run with an error. A run that passes is
// the run an unchecked one would have been: the wake check's extra steps
// are no-ops by what it asserts, and the certificate's rate flush is the
// one the driver's next NextEvent would have made, because the driver
// checks right before it asks NextEvent for the next advance. The last
// check, when every tenant is done, has no NextEvent after it; its flush
// is extra only if the final steps changed the network after the last
// AdvanceEventwise, which ends by asking NextEvent itself
// (TestEventDriverMatchesPolling pins equal EngineStats, checked and
// not). Other callers of CheckMaxMin get no such guarantee: one that
// changes the network and certifies without asking NextEvent again (after
// a loop's last event, say) pays a recompute the uncertified run never
// makes, and the fill counters move with it. flownet's
// TestCheckMaxMinNeutralInDriverLoop pins both cases.

package gpu

import (
	"fmt"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
)

// checkInvariants asserts the invariants above on the driver's tenants at
// the current clock; live holds the tenants the driver admitted (a done
// one leaves it here), ledgers is the run's own pool and ledger check
// (machineCheck.check for a cluster, infEngine.checkLedgers for serving),
// and dig the run's digest pair for the wake check.
func checkInvariants(net *flownet.Network, tenants []tenant, live *wakeSet, ledgers func() error, dig *[2]tenantDigest) error {
	if err := net.CheckMaxMin(); err != nil {
		return fmt.Errorf("gpu: check at %v: %w", net.Now(), err)
	}
	var err error
	live.forEach(func(i int) {
		t := tenants[i]
		switch {
		case err != nil:
		case t.core().phase == phaseDone:
			live.clear(i)
		default:
			if e := checkWake(t, net.Now(), dig); e != nil {
				err = fmt.Errorf("gpu: check at %v: tenant %d: %w", net.Now(), i, e)
			}
		}
	})
	if err != nil {
		return err
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
//
// dig holds the before and after digests. The pair is the run's, not the
// call's: a digest passed through the tenant interface escapes, and a
// fresh pair per call would be two heap allocations per live tenant per
// advance. A kind of tenant writes only its own fields, and a check that
// passes leaves the two equal, so the fields a kind does not write agree.
func checkWake(t tenant, now units.Time, dig *[2]tenantDigest) error {
	s := t.core()
	switch {
	case s.phase == phaseDone, s.phase == phasePending, s.phase == phaseCrashed,
		s.phase == phaseExec && now < s.execEnd:
		return nil
	}
	before, after := &dig[0], &dig[1]
	t.digest(before)
	t.step()
	if s.err != nil {
		return s.err
	}
	if t.digest(after); *after != *before {
		return fmt.Errorf("stepping it un-woken moved %+v to %+v (missed wake)", *before, *after)
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

// machineCheck is a checked cluster run's ledger check. touched is where
// the driver marks the machines whose tensor states may have changed since
// the last check; held and flash cache each machine's host bytes and flash
// pages from its last scan, and granted and pages their sums.
type machineCheck struct {
	tenants []*runner
	touched *wakeSet
	scan    []int
	held    []units.Bytes
	flash   []int64
	granted units.Bytes
	pages   int64
}

func newMachineCheck(tenants []*runner) *machineCheck {
	return &machineCheck{
		tenants: tenants,
		touched: newWakeSet(len(tenants)),
		held:    make([]units.Bytes, len(tenants)),
		flash:   make([]int64, len(tenants)),
	}
}

// check rescans the touched machines and checks every machine's ledgers
// against the cache: the driver's per-advance check.
func (c *machineCheck) check() error {
	c.scan = c.touched.drain(c.scan[:0])
	for _, i := range c.scan {
		if err := c.rescan(i); err != nil {
			return err
		}
	}
	return c.ledgers()
}

// full rescans every machine before checking the ledgers: the run's last
// check, which does not rely on the driver's marks.
func (c *machineCheck) full() error {
	for i := range c.tenants {
		if err := c.rescan(i); err != nil {
			return err
		}
	}
	return c.ledgers()
}

// rescan checks machine i's PTEs against its tensor states and refreshes
// its cached host bytes and flash pages.
func (c *machineCheck) rescan(i int) error {
	r := c.tenants[i]
	m := r.m
	var held units.Bytes
	var flash int64
	for j := range m.states {
		st := &m.states[j]
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
	c.granted += held - c.held[i]
	c.pages += flash - c.flash[i]
	c.held[i], c.flash[i] = held, flash
	return nil
}

// ledgers checks each machine's TLB verdict, host-pool grant and GPU use,
// and the shared host pool and flash array against the cached totals.
func (c *machineCheck) ledgers() error {
	pool, dev := c.tenants[0].m.host, c.tenants[0].m.sh.dev
	for i, r := range c.tenants {
		m := r.m
		if m.checkErr != nil {
			return m.checkErr
		}
		if got := pool.OwnedBy(m.idx); got != c.held[i] {
			return fmt.Errorf("tenant %d holds a %v host-pool grant for %v of host-resident tensors", m.idx, got, c.held[i])
		}
		if m.gpuUsed > m.cfg.GPUCapacity {
			return fmt.Errorf("tenant %d uses %v of GPU memory over capacity %v", m.idx, m.gpuUsed, m.cfg.GPUCapacity)
		}
	}
	if used := pool.Used(); used != c.granted || used > pool.Capacity() {
		return fmt.Errorf("host pool uses %v of %v, tenants hold %v", used, pool.Capacity(), c.granted)
	}
	if alloc := dev.AllocatedPages(); alloc != c.pages || alloc > dev.LogicalPages() {
		return fmt.Errorf("flash array has %d of %d logical pages allocated, tenants hold %d", alloc, dev.LogicalPages(), c.pages)
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
