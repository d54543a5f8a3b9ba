package gpu

import (
	"fmt"
	"sort"

	"g10sim/internal/dnn"
	"g10sim/internal/flownet"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/ssd"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// traffic is the machine's migration ledger in true tensor bytes (fault
// flows are inflated on the wire to model degraded on-demand bandwidth, so
// flownet's per-resource byte counters are not ground truth for volume).
type traffic struct {
	ssdIn, ssdOut, hostIn, hostOut units.Bytes
}

// ProgramBuilder lets each policy supply its instrumented program: the G10
// variants return the planner's output; reactive baselines return the
// alloc/free-only program; FlashNeuron builds its own offline offload plan.
type ProgramBuilder interface {
	Program(a *vitality.Analysis, cfg Config) *planner.Program
}

// RunParams bundles one simulation's inputs.
type RunParams struct {
	Analysis *vitality.Analysis
	Policy   Policy
	Config   Config
	// ExecTrace supplies the true kernel durations when they differ from
	// the (possibly perturbed) trace the plan was derived from (Fig. 19).
	// nil uses Analysis.Trace.
	ExecTrace *profile.Trace
}

// Run simulates the workload alone: a one-tenant RunCluster whose shared
// substrate (flash array, host memory and DRAM bus) is the tenant's own
// Config. It returns the measured-iteration result.
func Run(p RunParams) (Result, error) {
	res, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{{Analysis: p.Analysis, Policy: p.Policy, Config: p.Config, ExecTrace: p.ExecTrace}},
		Shared:  p.Config,
	})
	if err != nil {
		return Result{}, err
	}
	return res.Tenants[0], nil
}

// stepPhase is the explicit state of a tenant's resumable step machine.
type stepPhase int

const (
	// phaseBoundary: about to run the program's instrumentation at
	// boundary (iter, k); k == len(kernels) is the iteration-closing
	// boundary.
	phaseBoundary stepPhase = iota
	// phaseWait: boundary done; assembling kernel k's working set.
	phaseWait
	// phaseExec: kernel k executes until the shared clock reaches execEnd.
	phaseExec
	// phaseDone: the run completed, failed, or errored.
	phaseDone
	// phasePending: the job has not arrived yet (ClusterTenant.ArrivalTime
	// lies in the future); the cluster driver admits it — seeding its
	// global tensors at that moment's contention — when the shared clock
	// reaches its arrival.
	phasePending
	// phaseCrashed: the tenant's server is down (fault injection); only a
	// scheduled repair event revives it. Distinct from phasePending so the
	// driver's arrival admission never resurrects a crashed tenant.
	phaseCrashed
	// phaseCkpt: a checkpoint snapshot flow is in flight; the tenant resumes
	// at its next boundary when the flow lands (ckptLanded).
	phaseCkpt
	// phaseRestore: a post-repair checkpoint read-back is in flight.
	phaseRestore
)

// runner is a training tenant: a resumable step machine that replays its
// workload on its own Machine, whose clock the cluster scheduler advances.
// step never consumes simulated time; it runs the tenant to the point where
// only the clock can unblock it.
type runner struct {
	sched
	m       *Machine
	program *planner.Program
	exec    *profile.Trace

	// rp is non-nil for adaptive policies: at each iteration-closing
	// boundary it receives the iteration's lateness signal (delta from
	// sig0) and may swap the program replayed from the next iteration on.
	rp   Replanner
	sig0 LatenessSignal

	iter, k int
	// checkFail mirrors the original blocking loop's control flow: machine
	// failure is noticed after each wait on the network, not before the
	// first working-set scan.
	checkFail bool
	// hostRejects0 is the machine's host-reservation denial count when the
	// current step began: a blocked wait after a new denial subscribes
	// hostWake to the shared host pool's grant queue.
	hostRejects0 int64

	// Fault-injection and recovery state (faults.go). ckptEvery > 0
	// checkpoints every that-many iterations (RunCluster derives it from the
	// tenant's Recovery policy); lastCkpt is the iteration of the last
	// durable snapshot and the resume point after a repair. progressMark is
	// the clock value since which the tenant's work would be lost by a crash
	// (admission, repair, or last checkpoint completion); wasted accumulates
	// exactly those losses.
	ckptEvery    int
	ckptBytes    units.Bytes
	lastCkpt     int
	ckptFly      *flownet.Flow
	ckptRng      ssd.LogicalRange
	hasCkptRng   bool
	ckptWritten  units.Bytes
	ckptWrites   int
	restarts     int
	abortedFlows int
	abortedKerns int
	wasted       units.Duration
	progressMark units.Time

	// Measured-iteration snapshots.
	iterStart    units.Time
	ledger0      traffic
	faults0      int64
	faultBytes0  units.Bytes
	overflow0    units.Bytes
	overflowK0   int
	kernelEnds   []units.Time
	measuredIter bool

	// pinned is the current kernel's working set, reused across kernels.
	pinned map[int]bool
}

// newRunner validates the exec trace, builds the policy's instrumented
// program, and wraps machine m as a resumable tenant.
func newRunner(m *Machine, exec *profile.Trace) (*runner, error) {
	a := m.a
	if exec == nil {
		exec = a.Trace
	}
	if len(exec.Durations) != len(a.Graph.Kernels) {
		return nil, fmt.Errorf("gpu: exec trace has %d kernels, graph has %d",
			len(exec.Durations), len(a.Graph.Kernels))
	}
	var program *planner.Program
	if pb, ok := m.pol.(ProgramBuilder); ok {
		program = pb.Program(a, m.cfg)
	}
	if program == nil {
		program = planner.EmptyProgram(a)
	}
	r := &runner{m: m, program: program, exec: exec}
	if rp, ok := m.pol.(Replanner); ok {
		r.rp = rp
	}
	return r, nil
}

// admit makes the tenant steppable at the current clock — at time zero, on
// arrival, or on repair after a crash — and seeds its global (weight)
// tensors into the unified space: those that do not fit in GPU memory start
// in host memory or flash, exactly as a first-touch UVM program would find
// them.
func (r *runner) admit() error {
	r.phase = phaseBoundary
	r.progressMark = r.m.Now()
	for id, t := range r.m.g.Tensors {
		if t.Kind != dnn.Global {
			continue
		}
		if err := r.m.seed(id); err != nil {
			return err
		}
	}
	return nil
}

// queuedWork reports pending migration metadata to re-dispatch after
// network events.
func (r *runner) queuedWork() bool { return r.m.queues.Len() > 0 }

// redispatch pumps the machine's migration metadata queues.
func (r *runner) redispatch() { r.m.dispatch() }

// step advances the tenant as far as it can go without consuming simulated
// time: it stops when the run finishes, when the tenant is executing a
// kernel (waiting for the clock to reach execEnd), or when it is blocked on
// its in-flight migrations (waiting for a network event).
func (r *runner) step() {
	m := r.m
	r.hostRejects0 = m.hostRejects
	n := len(m.g.Kernels)
	for {
		switch r.phase {
		case phaseDone, phasePending, phaseCrashed, phaseCkpt, phaseRestore:
			// Crashed tenants wait for their repair event; checkpoint and
			// restore phases wait for their snapshot flow to land.
			return
		case phaseBoundary:
			if r.k == 0 && r.iter == m.cfg.Iterations-1 {
				r.beginMeasurement()
			}
			r.boundary(r.iter, r.k)
			if r.k == n { // iteration-closing boundary
				r.iter++
				r.k = 0
				if r.iter == m.cfg.Iterations {
					r.finish()
					return
				}
				r.replan()
				if r.maybeCheckpoint() {
					return // blocked on the snapshot flow
				}
				continue
			}
			r.beginWait()
		case phaseWait:
			if !r.stepWait() {
				return // blocked on a network event
			}
		case phaseExec:
			if m.Now() < r.execEnd {
				return // still executing; the driver advances the clock
			}
			if r.measuredIter {
				r.kernelEnds = append(r.kernelEnds, m.Now())
			}
			r.k++
			r.phase = phaseBoundary
			if m.failed {
				r.finish()
				return
			}
		}
	}
}

// finish marks the run complete at the current clock.
func (r *runner) finish() {
	r.phase = phaseDone
	r.doneAt = r.m.Now()
}

// replan hands an adaptive policy the finished iteration's lateness signal
// and swaps in any re-timed program for the iterations that follow. A no-op
// (zero work, zero allocation) for static policies.
func (r *runner) replan() {
	if r.rp == nil {
		return
	}
	cum := r.m.lat
	if np := r.rp.NextProgram(r.iter, cum.Sub(r.sig0), r.program); np != nil {
		r.program = np
	}
	r.sig0 = cum
}

func (r *runner) beginMeasurement() {
	r.measuredIter = true
	r.iterStart = r.m.Now()
	r.ledger0 = r.m.ledger
	r.faults0 = r.m.faults
	r.faultBytes0 = r.m.faultedBytes
	r.overflow0 = r.m.overflowBytes
	r.overflowK0 = r.m.overflowKerns
	r.kernelEnds = make([]units.Time, 0, len(r.m.g.Kernels))
}

// boundary executes the program's instrumentation at boundary b, then the
// policy's dynamic hook.
func (r *runner) boundary(iter, b int) {
	m := r.m
	for _, in := range r.program.Boundaries[b] {
		id := in.Tensor.ID
		switch in.Kind {
		case planner.OpFree:
			m.free(id)
		case planner.OpPreEvict:
			m.RequestEvict(id, in.Target)
		case planner.OpAlloc:
			// Best effort; the kernel-start path retries with eviction.
			m.alloc(id)
		case planner.OpPrefetch:
			m.RequestFetch(id, uvm.Prefetch)
		}
	}
	m.dispatch()
	m.pol.AtBoundary(iter, b)
}

// beginWait pins kernel k's working set and enters the assembly phase.
func (r *runner) beginWait() {
	tensors := r.m.g.Kernels[r.k].Tensors()
	if r.pinned == nil {
		r.pinned = make(map[int]bool, len(tensors))
	} else {
		clear(r.pinned)
	}
	for _, t := range tensors {
		r.pinned[t.ID] = true
	}
	r.checkFail = false
	r.phase = phaseWait
}

// stepWait runs the working-set assembly loop until the kernel can start,
// the run fails, or the tenant must wait for one of its migrations.
// Reports false in the waiting case (the caller returns to the driver) and
// true when the phase advanced.
func (r *runner) stepWait() bool {
	m := r.m
	kern := m.g.Kernels[r.k]
	for {
		if r.checkFail {
			// Resume point after a network wait.
			r.checkFail = false
			if m.failed {
				r.finish()
				return true
			}
		}
		ready, allocDeficit := r.scanWorkingSet(kern)
		if ready {
			r.startExec(kern, 0)
			return true
		}

		// Ask the policy to free memory beyond what in-flight evictions
		// will already release. The machine maintains the pending-fetch and
		// in-flight-eviction byte totals incrementally, so this is O(1) per
		// wait iteration instead of a scan over every tensor state.
		deficit := allocDeficit + m.pendFetchBytes - m.GPUFree() - m.evictPendBytes
		if deficit > 0 {
			m.pol.MakeRoom(deficit, r.pinned)
			m.dispatch()
		}

		if m.inflight > 0 {
			// Migrations are flying; resume after the next network event —
			// the scheduler wakes this tenant when one of its own flows
			// completes. If a host reservation was denied this step, also
			// subscribe to the pool's grant queue: released capacity then
			// wakes this tenant explicitly instead of relying on a re-poll.
			if !r.hostSubscribed && m.hostRejects > r.hostRejects0 {
				r.hostSubscribed = true
				m.host.AwaitFreeFor(m.idx, m.lastHostReject, r.hostWake)
			}
			r.checkFail = true
			return false
		}
		// Nothing of ours in flight and still blocked. Partially landed
		// fetches for other kernels may be wedging memory; roll them back
		// before declaring the working set unfittable.
		if m.cancelStalledFetches(r.pinned) > 0 {
			m.dispatch()
			continue
		}
		penalty, err := r.streamOverflow(kern, r.pinned)
		if err != nil {
			r.err = err
			r.finish()
			return true
		}
		if m.failed {
			r.finish()
			return true
		}
		r.startExec(kern, penalty)
		return true
	}
}

// scanWorkingSet checks kernel k's tensors, driving allocation and demand
// fetches (via the policy's OnMiss) and cancelling queued evictions of
// needed tensors. It reports readiness and the bytes of denied allocations.
func (r *runner) scanWorkingSet(kern *dnn.Kernel) (bool, units.Bytes) {
	m := r.m
	ready := true
	var allocDeficit units.Bytes
	for _, t := range kern.Tensors() {
		st := &m.states[t.ID]
		switch {
		case st.loc == uvm.InGPU && st.fly() == nil:
			if pend := st.pend(); pend != nil && pend.Kind == uvm.PreEvict {
				m.clearPend(st) // cancel a queued eviction of a needed tensor
			}
		case st.loc == uvm.InGPU: // eviction in flight; must drain first
			ready = false
		case st.loc == uvm.Unmapped:
			if !m.alloc(t.ID) {
				ready = false
				allocDeficit += t.Size
			}
		default: // InHost or InFlash
			ready = false
			if st.pend() == nil {
				m.pol.OnMiss(r.k, t)
			}
		}
	}
	return ready, allocDeficit
}

// startExec launches kernel k: touch its tensors for LRU and the TLB (a
// miss refills the TLB but charges no page-walk time; see DESIGN.md §2),
// then run until execEnd on the shared clock. penalty is the overflow
// streaming time, if the working set did not fit.
func (r *runner) startExec(kern *dnn.Kernel, penalty units.Duration) {
	m := r.m
	for _, t := range kern.Tensors() {
		m.touch(t.ID)
	}
	r.execEnd = m.Now() + r.exec.Durations[r.k] + penalty
	r.phase = phaseExec
}

// streamOverflow models a kernel whose working set exceeds GPU memory.
// UVM-based systems execute it anyway, faulting pages through the PCIe
// link at on-demand efficiency (inputs stream in, outputs stream out);
// FlashNeuron-style managers cannot, reproducing the paper's footnote 1.
func (r *runner) streamOverflow(kern *dnn.Kernel, pinned map[int]bool) (units.Duration, error) {
	m := r.m
	if !m.pol.UsesUVM() {
		m.failf("kernel %s working set %v exceeds GPU memory %v",
			kern.Name, kern.WorkingSet(), m.cfg.GPUCapacity)
		return 0, nil
	}

	var streamed []*dnn.Tensor
	var streamBytes units.Bytes
	for _, t := range kern.Tensors() {
		st := &m.states[t.ID]
		if st.loc == uvm.InGPU {
			continue
		}
		m.clearPend(st) // cancel whatever was queued; the stream covers it
		streamed = append(streamed, t)
		streamBytes += t.Size
	}
	if len(streamed) == 0 {
		// Defensive: resident but deadlocked (should not happen).
		return 0, fmt.Errorf("gpu: kernel %s deadlocked with full residency", kern.Name)
	}

	// Unallocated outputs must land somewhere once the kernel finishes.
	for _, t := range streamed {
		st := &m.states[t.ID]
		if st.loc != uvm.Unmapped {
			continue
		}
		loc, err := m.spill(st)
		if err != nil {
			return 0, fmt.Errorf("gpu: overflow spill: %w", err)
		}
		r.addTraffic(loc, t.Size, false)
	}
	// Inputs stream in once and their dirty pages stream back out.
	for _, t := range streamed {
		st := &m.states[t.ID]
		if st.loc == uvm.InHost || st.loc == uvm.InFlash {
			r.addTraffic(st.loc, t.Size, true)
		}
	}

	effBW := units.Bandwidth(float64(m.cfg.PCIeBandwidth) * m.cfg.FaultEfficiency)
	penalty := 2 * units.TransferTime(streamBytes, effBW)
	faultGroups := int64(units.PagesFor(streamBytes, 32*units.MB))
	penalty += units.Duration(faultGroups) * m.cfg.FaultLatency

	m.faults += faultGroups
	m.faultedBytes += streamBytes
	m.overflowKerns++
	m.overflowBytes += streamBytes
	return penalty, nil
}

// addTraffic records streamed bytes in the ledger (in = toward GPU).
func (r *runner) addTraffic(loc uvm.Location, n units.Bytes, in bool) {
	switch {
	case loc == uvm.InFlash && in:
		r.m.ledger.ssdIn += n
	case loc == uvm.InFlash:
		r.m.ledger.ssdOut += n
	case in:
		r.m.ledger.hostIn += n
	default:
		r.m.ledger.hostOut += n
	}
}

func (r *runner) result() Result {
	m := r.m
	res := Result{
		Model:  m.g.Name,
		Batch:  m.g.Batch,
		Policy: m.pol.Name(),
	}
	res.IdealTime = r.exec.Total()
	if r.measuredIter {
		end := m.Now()
		if len(r.kernelEnds) > 0 {
			end = r.kernelEnds[len(r.kernelEnds)-1]
		}
		res.IterationTime = end - r.iterStart
		res.StallTime = res.IterationTime - res.IdealTime
		if res.StallTime < 0 {
			res.StallTime = 0
		}
		// Kernel times are the differences of the kernel ends, taken in
		// place: the run is over, so the ends are not needed again.
		res.KernelTimes = r.kernelEnds
		r.kernelEnds = nil
		prev := r.iterStart
		for i, e := range res.KernelTimes {
			res.KernelTimes[i] = e - prev
			prev = e
		}
		res.SSDToGPU = m.ledger.ssdIn - r.ledger0.ssdIn
		res.GPUToSSD = m.ledger.ssdOut - r.ledger0.ssdOut
		res.HostToGPU = m.ledger.hostIn - r.ledger0.hostIn
		res.GPUToHost = m.ledger.hostOut - r.ledger0.hostOut
		res.Faults = m.faults - r.faults0
		res.FaultedBytes = m.faultedBytes - r.faultBytes0
		res.FaultedPages = int64(units.PagesFor(res.FaultedBytes, m.cfg.PageSize))
		res.OverflowBytes = m.overflowBytes - r.overflow0
		res.OverflowKernels = m.overflowKerns - r.overflowK0
	}
	res.SSDStats = m.dev.Stats()
	res.WriteAmp = m.dev.WriteAmplification()
	res.TLBHitRate = m.tlb.HitRate()
	res.Failed = m.failed
	res.FailReason = m.failReason
	res.Restarts = r.restarts
	res.WastedTime = r.wasted
	res.CheckpointBytes = r.ckptWritten
	res.CheckpointWrites = r.ckptWrites
	return res
}

// SlowdownCDF summarises per-kernel slowdowns versus the ideal trace
// (Fig. 13): the returned slice is sorted ascending.
func SlowdownCDF(res Result, exec *profile.Trace) []float64 {
	if len(res.KernelTimes) == 0 {
		return nil
	}
	out := make([]float64, len(res.KernelTimes))
	for i := range res.KernelTimes {
		out[i] = float64(res.KernelTimes[i]) / float64(exec.Durations[i])
	}
	sort.Float64s(out)
	return out
}
