// Fault injection and recovery for the cluster engine.
//
// A FaultPlan is a fixed, fully deterministic schedule of hardware fault
// events — server crashes (with optional repair), PCIe link-degradation
// windows, and flash die failures. The driver folds the plan's next event
// time into its shared-clock horizon and applies due events at one pump
// point — after the network advance and kernel-end pops, before arrival
// admission — so a faulted run is as deterministic as a clean one (see
// DESIGN.md §15).
//
// A crash aborts the victim's in-flight kernel and flows (riding the
// mid-exec abort and stale-heap-entry tolerance the serving engine
// introduced), discards all resident tensor state, and hands the tenant to
// its Recovery policy: restart from iteration zero, or resume from the last
// completed checkpoint — periodic snapshots written as real GPU→SSD flows
// that charge flash wear like any eviction.

package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
)

// CrashFault kills one tenant's server at a point on the shared clock.
type CrashFault struct {
	Tenant int        `json:"tenant"`
	At     units.Time `json:"at"`
	// RepairAfter is the delay until the server is rebuilt and the job
	// re-admitted; negative means the server never returns and the job
	// fails. A crash only affects a job that is running: finished and
	// not-yet-arrived tenants lose nothing (so a crash plus instant repair
	// of an idle server is exactly a no-op).
	RepairAfter units.Duration `json:"repair_after"`
}

// LinkDegrade multiplies one tenant's PCIe bandwidth by Factor over
// [From, Until). Overlapping windows multiply.
type LinkDegrade struct {
	Tenant int        `json:"tenant"`
	From   units.Time `json:"from"`
	Until  units.Time `json:"until"`
	Factor float64    `json:"factor"`
}

// DieFail removes dies from the shared flash array at a point in time,
// scaling its effective bandwidths and remaining allocatable capacity.
type DieFail struct {
	At   units.Time `json:"at"`
	Dies int        `json:"dies"`
}

// FaultPlan is a deterministic schedule of fault events for one cluster
// run. The zero value injects nothing.
type FaultPlan struct {
	Crashes  []CrashFault  `json:"crashes,omitempty"`
	Degrades []LinkDegrade `json:"degrades,omitempty"`
	DieFails []DieFail     `json:"die_fails,omitempty"`
}

// Validate checks the plan against a cluster of n tenants (n < 0 skips the
// upper-bound check, for plans loaded before the tenant list is known).
func (p *FaultPlan) Validate(n int) error {
	for i, c := range p.Crashes {
		if c.Tenant < 0 || (n >= 0 && c.Tenant >= n) {
			return fmt.Errorf("gpu: fault plan: crash %d targets tenant %d", i, c.Tenant)
		}
		if c.At < 0 {
			return fmt.Errorf("gpu: fault plan: crash %d at negative time %d", i, c.At)
		}
	}
	for i, d := range p.Degrades {
		if d.Tenant < 0 || (n >= 0 && d.Tenant >= n) {
			return fmt.Errorf("gpu: fault plan: degrade %d targets tenant %d", i, d.Tenant)
		}
		if d.From < 0 || d.Until <= d.From {
			return fmt.Errorf("gpu: fault plan: degrade %d window [%d, %d) is empty", i, d.From, d.Until)
		}
		if !(d.Factor > 0 && d.Factor <= 1) {
			return fmt.Errorf("gpu: fault plan: degrade %d factor %v outside (0, 1]", i, d.Factor)
		}
	}
	for i, f := range p.DieFails {
		if f.At < 0 {
			return fmt.Errorf("gpu: fault plan: die failure %d at negative time %d", i, f.At)
		}
		if f.Dies < 1 {
			return fmt.Errorf("gpu: fault plan: die failure %d removes %d dies", i, f.Dies)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Degrades) == 0 && len(p.DieFails) == 0)
}

// MTBF derives the per-server mean time between failures the crash schedule
// implies for a fleet of n tenants: the schedule horizon (latest crash
// time) divided by the per-server crash rate. Zero when the plan has no
// crashes — the Young/Daly auto-interval then disables checkpointing.
func (p *FaultPlan) MTBF(n int) units.Duration {
	if p == nil || len(p.Crashes) == 0 || n < 1 {
		return 0
	}
	var horizon units.Time
	for _, c := range p.Crashes {
		if c.At > horizon {
			horizon = c.At
		}
	}
	return units.Duration(horizon) * units.Duration(n) / units.Duration(len(p.Crashes))
}

// Save serializes the plan as JSON.
func (p *FaultPlan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadFaultPlan reads and validates a JSON fault plan.
func LoadFaultPlan(r io.Reader) (*FaultPlan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p FaultPlan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("gpu: fault plan: %w", err)
	}
	if err := p.Validate(-1); err != nil {
		return nil, err
	}
	// Normalise empty event lists to nil so a load/save round trip is
	// lossless (omitempty drops empty slices on save).
	if len(p.Crashes) == 0 {
		p.Crashes = nil
	}
	if len(p.Degrades) == 0 {
		p.Degrades = nil
	}
	if len(p.DieFails) == 0 {
		p.DieFails = nil
	}
	return &p, nil
}

// Recovery decides how a crashed tenant resumes; internal/policy implements
// Restart and Checkpoint.
type Recovery interface {
	Name() string
	// CheckpointInterval reports the checkpoint cadence in iterations for a
	// tenant whose iteration takes iterTime and whose snapshot write costs
	// ckptCost, under per-server mean time between failures mtbf (0 = no
	// crash schedule). <= 0 disables checkpointing (pure restart).
	CheckpointInterval(iterTime, ckptCost, mtbf units.Duration) int
}

// ---- The fault clock ----

type faultKind int

const (
	faultCrash faultKind = iota
	faultRepair
	faultDegradeStart
	faultDegradeEnd
	faultDieFail
)

// faultEvent is one expanded schedule entry. seq preserves plan order among
// same-time events, so a crash always applies before its own instant repair
// and the expansion order is part of the determinism contract.
type faultEvent struct {
	at        units.Time
	seq       int
	kind      faultKind
	tenant    int
	factor    float64
	dies      int
	permanent bool
}

// faultClock owns a run's expanded, time-ordered fault schedule and the
// state fault application touches: the tenants, the shared substrate, and
// each tenant's stack of active link-degradation factors.
type faultClock struct {
	events  []faultEvent
	cursor  int
	tenants []*runner
	sh      *Shared
	net     *flownet.Network
	factors [][]float64
}

func newFaultClock(p *FaultPlan, tenants []*runner, sh *Shared, net *flownet.Network) *faultClock {
	fc := &faultClock{tenants: tenants, sh: sh, net: net, factors: make([][]float64, len(tenants))}
	seq := 0
	add := func(e faultEvent) {
		e.seq = seq
		seq++
		fc.events = append(fc.events, e)
	}
	for _, c := range p.Crashes {
		add(faultEvent{at: c.At, kind: faultCrash, tenant: c.Tenant, permanent: c.RepairAfter < 0})
		if c.RepairAfter >= 0 {
			add(faultEvent{at: c.At + c.RepairAfter, kind: faultRepair, tenant: c.Tenant})
		}
	}
	for _, d := range p.Degrades {
		add(faultEvent{at: d.From, kind: faultDegradeStart, tenant: d.Tenant, factor: d.Factor})
		add(faultEvent{at: d.Until, kind: faultDegradeEnd, tenant: d.Tenant, factor: d.Factor})
	}
	for _, f := range p.DieFails {
		add(faultEvent{at: f.At, kind: faultDieFail, dies: f.Dies})
	}
	sort.SliceStable(fc.events, func(i, j int) bool {
		if fc.events[i].at != fc.events[j].at {
			return fc.events[i].at < fc.events[j].at
		}
		return fc.events[i].seq < fc.events[j].seq
	})
	return fc
}

// next reports the earliest unapplied event time (Forever when drained);
// the driver folds it into its horizon, so a cluster whose only pending
// wakeup is a repair never trips the stall guard.
func (fc *faultClock) next() units.Time {
	if fc == nil || fc.cursor >= len(fc.events) {
		return units.Forever
	}
	return fc.events[fc.cursor].at
}

// apply fires every event due at or before now, in (time, plan-order)
// order. wake marks a repaired tenant runnable in the driver's
// bookkeeping. Returns how many tenants reached phaseDone (permanently
// failed) so the driver can settle its remaining count.
func (fc *faultClock) apply(now units.Time, wake func(int)) (finished int, err error) {
	for fc.cursor < len(fc.events) && fc.events[fc.cursor].at <= now {
		e := fc.events[fc.cursor]
		fc.cursor++
		switch e.kind {
		case faultCrash:
			if fc.tenants[e.tenant].crash(e.permanent) {
				finished++
			}
		case faultRepair:
			r := fc.tenants[e.tenant]
			if r.phase != phaseCrashed {
				continue // the crash was a no-op (idle server); so is the repair
			}
			if err := r.repair(); err != nil {
				return finished, err
			}
			wake(e.tenant)
		case faultDegradeStart:
			fc.factors[e.tenant] = append(fc.factors[e.tenant], e.factor)
			fc.setLink(e.tenant)
		case faultDegradeEnd:
			fs := fc.factors[e.tenant]
			for i, f := range fs {
				if f == e.factor {
					fc.factors[e.tenant] = append(fs[:i], fs[i+1:]...)
					break
				}
			}
			fc.setLink(e.tenant)
		case faultDieFail:
			fc.sh.dev.FailDies(e.dies)
			fc.net.SetCapacity(fc.sh.ssdRead, fc.sh.dev.EffectiveReadBandwidth())
			fc.net.SetCapacity(fc.sh.ssdWrite, fc.sh.dev.EffectiveWriteBandwidth())
		}
	}
	return finished, nil
}

// setLink re-derives tenant t's PCIe capacity from scratch as the
// configured bandwidth times the product of every active window factor —
// an empty stack restores the exact original float, so closed windows leave
// no drift behind.
func (fc *faultClock) setLink(t int) {
	m := fc.tenants[t].m
	bw := float64(m.cfg.PCIeBandwidth)
	for _, f := range fc.factors[t] {
		bw *= f
	}
	fc.net.SetCapacity(m.pcieIn, units.Bandwidth(bw))
	fc.net.SetCapacity(m.pcieOut, units.Bandwidth(bw))
}

// ---- Crash, repair, checkpoint, restore (runner side) ----

// ckptOp is the payload of a checkpoint or restore flow; delivery routes it
// back to the runner (see deliver in machine.go).
type ckptOp struct {
	r       *runner
	restore bool
}

// crash tears the tenant's server down at the current clock: the in-flight
// kernel and every flow abort, all resident tensor state is discarded,
// and the tenant either waits for repair (phaseCrashed) or — when the crash
// is permanent — fails. Idle tenants (done, pending, already crashed) lose
// nothing. Reports whether the tenant reached phaseDone.
func (r *runner) crash(permanent bool) bool {
	switch r.phase {
	case phaseDone, phasePending, phaseCrashed:
		return false
	}
	m := r.m
	now := m.Now()
	if r.phase == phaseExec {
		// The driver's kernel-end heap entry goes stale; it pops as a no-op.
		r.inExecHeap = false
		r.abortedKerns++
	}
	r.wasted += now - r.progressMark
	r.abortedFlows += m.crashReset()
	if r.ckptFly != nil {
		m.net.Abort(r.ckptFly)
		r.ckptFly = nil
		r.abortedFlows++
	}
	r.hostSubscribed = false
	r.checkFail = false
	r.measuredIter = false
	r.kernelEnds = r.kernelEnds[:0]
	r.k = 0
	if permanent {
		if r.hasCkptRng {
			m.dev.Free(r.ckptRng)
			r.hasCkptRng = false
		}
		m.failf("server crashed with no repair scheduled")
		r.finish()
		return true
	}
	r.restarts++
	r.phase = phaseCrashed
	return false
}

// repair re-admits a crashed tenant at the current clock: global tensors
// re-seed into the then-current shared pool and array, and a tenant with a
// durable checkpoint restores it (a real SSD→GPU flow) before resuming from
// that iteration; everyone else restarts from iteration zero.
func (r *runner) repair() error {
	r.k = 0
	r.iter = r.lastCkpt
	r.sig0 = r.m.lat
	if err := r.admit(); err != nil {
		return err
	}
	if r.lastCkpt > 0 && r.hasCkptRng {
		r.startRestore()
	}
	return nil
}

// maybeCheckpoint starts a snapshot write if the tenant's cadence says this
// iteration-closing boundary is due. Reports whether the tenant is now
// blocked on the snapshot flow.
func (r *runner) maybeCheckpoint() bool {
	if r.ckptEvery <= 0 || r.iter%r.ckptEvery != 0 {
		return false
	}
	return r.startCheckpoint()
}

// startCheckpoint launches the snapshot as a real flow over the tenant's
// eviction route (GPU → host bus → SSD channel): checkpoint traffic
// contends with every other migration and its device write charges this
// tenant's flash wear. The flash range is allocated once and rewritten in
// place each interval.
func (r *runner) startCheckpoint() bool {
	m := r.m
	if r.ckptBytes <= 0 {
		return false
	}
	if !r.hasCkptRng {
		rng, err := m.dev.Alloc(m.dev.PagesFor(r.ckptBytes))
		if err != nil {
			// Array out of space: degrade gracefully to restart-only.
			r.ckptEvery = 0
			return false
		}
		r.ckptRng, r.hasCkptRng = rng, true
	}
	lat := m.cfg.DMALatency + m.cfg.SSD.WriteLatency
	r.ckptFly = m.net.StartAt("ckpt:"+m.g.Name, r.ckptBytes, m.Now()+lat, &ckptOp{r: r}, m.routes.evictFlash...)
	r.ckptFly.Owner = m.idx
	r.phase = phaseCkpt
	return true
}

// startRestore launches the checkpoint read-back (SSD → GPU) after a
// repair; the tenant resumes stepping when it lands.
func (r *runner) startRestore() {
	m := r.m
	if err := m.dev.Read(r.ckptRng); err != nil {
		// The array shrank under the checkpoint (die failure): restart.
		r.iter = 0
		r.lastCkpt = 0
		return
	}
	lat := m.cfg.DMALatency + m.cfg.SSD.ReadLatency
	r.ckptFly = m.net.StartAt("restore:"+m.g.Name, r.ckptBytes, m.Now()+lat, &ckptOp{r: r, restore: true}, m.routes.fetchFlash...)
	r.ckptFly.Owner = m.idx
	m.ledger.ssdIn += r.ckptBytes
	r.phase = phaseRestore
}

// ckptLanded commits a finished checkpoint or restore flow and re-opens the
// step machine. Aborted flows never deliver, so this only runs for the
// tenant's live snapshot flow.
func (r *runner) ckptLanded(op *ckptOp) {
	m := r.m
	r.ckptFly = nil
	if op.restore {
		r.progressMark = m.Now()
		r.phase = phaseBoundary
		return
	}
	if _, err := m.dev.Write(r.ckptRng); err != nil {
		m.dev.Free(r.ckptRng)
		r.hasCkptRng = false
		r.ckptEvery = 0
		r.phase = phaseBoundary
		return
	}
	m.refreshSSDWrite()
	m.ledger.ssdOut += r.ckptBytes
	r.lastCkpt = r.iter
	r.ckptWritten += r.ckptBytes
	r.ckptWrites++
	r.progressMark = m.Now()
	r.phase = phaseBoundary
}

// crashReset discards every volatile trace of the machine's execution: all
// in-flight flows abort, resident tensors unmap everywhere (GPU, host,
// flash), metadata queues drain, and the tenant's bulk host-pool grant —
// including any pending waiter subscription — releases in one FIFO-
// preserving round. Iteration over states is in tensor-id order, so the
// teardown's effect on shared structures is deterministic.
// Returns the number of aborted flows.
func (m *Machine) crashReset() (aborted int) {
	m.queues.Reset()
	for id := range m.states {
		st := &m.states[id]
		if mig := st.mig; mig != nil {
			if mig.fly != nil {
				m.net.Abort(mig.fly)
				aborted++
			}
			if mig.req != nil {
				// Queues are reset: nothing references the request anymore.
				m.putRequest(mig.req)
			}
			st.mig = nil
			m.putMigration(mig)
		}
		m.unmap(st)
		st.lastUse = 0
		st.lruPrev, st.lruNext = -1, -1
	}
	m.gpuUsed = 0
	m.inflight = 0
	m.pendFetchBytes, m.evictPendBytes = 0, 0
	m.lruHead, m.lruTail, m.lruLen = -1, -1, 0
	m.host.ReleaseAll(m.idx)
	return aborted
}
