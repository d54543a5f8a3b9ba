// Cluster engine: co-simulates N tenant machines on one shared clock.
//
// Each tenant is a resumable runner (see run.go) owning its GPU, PCIe link,
// page table, and migration queues; the flash array (one FTL, shared
// channel bandwidth, shared GC state), host memory capacity, and the host
// DRAM bus are one substrate every tenant contends on.
//
// Scheduling is event-driven: tenants sleep on explicit wakeup sources — a
// kernel-end heap, flow-completion owner tags, the host pool's grant
// queue, and an arrival queue for jobs that join mid-simulation — and only
// the tenants whose events fire are stepped, so per-event cost is
// O(affected tenants · log n) instead of O(all tenants). Skipping the
// others is sound only if stepping an un-woken tenant is a no-op;
// ClusterParams.Check asserts exactly that (check.go), with the engine's
// other invariants, at every clock advance. Run is a one-tenant cluster.
package gpu

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"g10sim/internal/dnn"
	"g10sim/internal/flownet"
	"g10sim/internal/profile"
	"g10sim/internal/ssd"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// ClusterTenant describes one job of a co-simulation.
type ClusterTenant struct {
	Analysis *vitality.Analysis
	// Policy must be a fresh instance per tenant; policies carry per-run
	// state.
	Policy Policy
	// Config's per-GPU fields (GPUCapacity, PCIeBandwidth, migration and
	// fault parameters, Iterations) apply to this tenant. Its SSD, host
	// capacity, and host bandwidth fields are overridden by the cluster's
	// shared configuration so the tenant's planner sees the array it will
	// actually run on.
	Config Config
	// ExecTrace overrides the replayed kernel durations (nil = the trace
	// the analysis was built from).
	ExecTrace *profile.Trace
	// ArrivalTime admits the job mid-simulation: it joins — seeding its
	// global tensors into the then-current shared pool and array — when
	// the shared clock reaches this value. <= 0 means present from the
	// start. The job's PCIe resources are registered up front so flownet's
	// resource order is a function of the tenant list alone.
	ArrivalTime units.Time
	// Recovery selects how this tenant resumes after an injected crash
	// (see faults.go and internal/policy). nil — or a run with no fault
	// plan — restarts from iteration zero with no checkpoint overhead.
	Recovery Recovery
}

// ClusterParams bundles a co-simulation's inputs.
type ClusterParams struct {
	Tenants []ClusterTenant
	// Shared configures the cross-tenant substrate: the SSD array, host
	// memory capacity, and host DRAM bandwidth (its per-GPU fields are
	// ignored).
	Shared Config
	// Check asserts the engine's invariants at every clock advance (see
	// check.go) and fails the run with an error at the first violation. A
	// run that passes is identical to an unchecked one. Each advance costs
	// a wake-check step of every live (admitted, not done) tenant, a pass
	// over the active flows, and a scan of the tensor states of the tenants
	// the driver touched since the last advance; the run ends with a full
	// scan and the FTL's own consistency check.
	Check bool
	// StepCount, when non-nil, accumulates the run's step-machine
	// invocations — the scheduler-cost metric BenchmarkClusterScaling pins
	// near-linear in tenant count. Per-run state: concurrent RunCluster
	// calls with distinct counters never contend.
	StepCount *int64
	// Engine, when non-nil, accumulates the run's engine-internal work
	// counters (see EngineStats). Like StepCount, this is an out-parameter
	// rather than a ClusterResult field: results describe the simulated
	// system and stay byte-comparable, while the engine's bookkeeping is
	// observable separately.
	Engine *EngineStats
	// Faults injects a deterministic fault schedule (faults.go), applied at
	// one pump point of the driver. nil or empty injects nothing and adds
	// no overhead.
	Faults *FaultPlan
	// Plans, when non-nil, is the plan cache the tenants plan through, so
	// runs sharing it plan each distinct job once between them. nil plans
	// each distinct job once per run. Results do not depend on it.
	Plans *PlanCache
}

// EngineStats reports how much internal bookkeeping the simulation engine
// performed during a run — the work the O(events) refactor bounds — as
// opposed to what the simulated system did. Lazy settlement and the
// heap-driven reap keep ProgressTouches and ReapScans proportional to the
// event count rather than O(active flows) per clock advance;
// TestEngineStats asserts near-linear scaling, and `g10bench -json`
// reports the counters per suite under their JSON names.
type EngineStats struct {
	// FlowRecomputes counts max-min rate re-derivations of the flow
	// network; FlowSuccessions counts chunk completions that Succeed
	// replaced in place carrying the predecessor's rate, confirmed by a
	// flush that needed no recompute.
	FlowRecomputes  int64 `json:"flow_recomputes"`
	FlowSuccessions int64 `json:"flow_successions"`
	// ProgressTouches counts per-flow byte-accounting settlements (one per
	// replayed progress segment); ReapScans counts flows examined for
	// completion (completion-heap candidates, or the whole active set while
	// it is small enough to scan).
	ProgressTouches int64 `json:"progress_touches"`
	ReapScans       int64 `json:"reap_scans"`
	// TLBEpochShootdowns is always 0: tensor-granular translation shoots
	// down one TLB entry per remap and has no epoch ranges. The field
	// stays because the perfbench module reads it.
	TLBEpochShootdowns int64 `json:"-"`
	// FillRounds counts progressive-filling rounds (bottleneck selections)
	// and FillResScans the resource examinations they performed — the heap
	// fill pays per touched resource where the reference scan pays the whole
	// component every round.
	FillRounds   int64 `json:"fill_rounds"`
	FillResScans int64 `json:"fill_res_scans"`
	// FrontierReuses is always 0: every rate re-derivation is a
	// dirty-component heap fill, with no incremental refill of a recorded
	// fill trace. The field stays because the perfbench module reads it.
	FrontierReuses int64 `json:"-"`
	// FlowAllocs counts flow objects the network allocated fresh rather than
	// reusing a released one.
	FlowAllocs int64 `json:"flow_allocs"`
	// TenantAborts counts kernels and flows torn down by injected crashes;
	// TenantRestarts counts crash recoveries (a permanently crashed tenant
	// restarts zero times); CheckpointBytes totals durable snapshot bytes
	// written to flash, summed over tenants.
	TenantAborts    int64 `json:"tenant_aborts"`
	TenantRestarts  int64 `json:"tenant_restarts"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// Add folds o into s.
func (s *EngineStats) Add(o EngineStats) {
	s.FlowRecomputes += o.FlowRecomputes
	s.FlowSuccessions += o.FlowSuccessions
	s.ProgressTouches += o.ProgressTouches
	s.ReapScans += o.ReapScans
	s.FillRounds += o.FillRounds
	s.FillResScans += o.FillResScans
	s.FlowAllocs += o.FlowAllocs
	s.TenantAborts += o.TenantAborts
	s.TenantRestarts += o.TenantRestarts
	s.CheckpointBytes += o.CheckpointBytes
}

// TenantSpan is one job's admission and completion times on the shared
// clock.
type TenantSpan struct {
	Arrival units.Time
	Finish  units.Time
}

// Duration reports the job's wall-clock span.
func (s TenantSpan) Duration() units.Duration { return s.Finish - s.Arrival }

// ClusterResult reports one co-simulation.
type ClusterResult struct {
	// Tenants holds each job's result in input order. A tenant's SSDStats
	// and WriteAmp are its attributed share of the shared array (host
	// writes, and the GC work those writes triggered).
	Tenants []Result
	// Spans holds each job's arrival and finish times in input order.
	Spans []TenantSpan
	// Makespan is the clock value at which the last tenant finished.
	Makespan units.Duration
	// SSDStats aggregates the whole array; WriteAmp is the array-level
	// write amplification.
	SSDStats ssd.Stats
	WriteAmp float64
}

// RunCluster co-simulates every tenant against one flash array, host
// memory pool, and clock. Tenant failures (FlashNeuron-style footnote-1
// aborts) are reported in the per-tenant Result; hard simulator errors
// abort the whole run.
func RunCluster(p ClusterParams) (ClusterResult, error) {
	if len(p.Tenants) == 0 {
		return ClusterResult{}, fmt.Errorf("gpu: cluster with no tenants")
	}
	if !p.Faults.Empty() {
		if err := p.Faults.Validate(len(p.Tenants)); err != nil {
			return ClusterResult{}, err
		}
	}
	shCfg := p.Shared.withDefaults()
	net := flownet.New()
	var sh *Shared
	runners := make([]*runner, len(p.Tenants))
	tenants := make([]tenant, len(p.Tenants))
	for i, t := range p.Tenants {
		cfg := t.Config.withDefaults()
		cfg.SSD = shCfg.SSD
		cfg.HostCapacity = shCfg.HostCapacity
		cfg.HostDRAMBandwidth = shCfg.HostDRAMBandwidth
		m := newTenantShell(t.Analysis, cfg, net, fmt.Sprintf("gpu%d", i))
		m.idx, m.check = i, p.Check
		if i == 0 {
			// Shared resources are registered after tenant 0's PCIe
			// links. flownet's bottleneck evaluation order follows
			// resource order, so this order is part of every result.
			var err error
			sh, err = NewShared(net, shCfg)
			if err != nil {
				return ClusterResult{}, err
			}
			if p.Plans != nil {
				sh.plans = p.Plans
			}
		}
		m.bind(sh, t.Policy)
		r, err := newRunner(m, t.ExecTrace)
		if err != nil {
			return ClusterResult{}, fmt.Errorf("gpu: tenant %d (%s): %w", i, t.Analysis.Graph.Name, err)
		}
		r.idx = i
		r.arrival = t.ArrivalTime
		runners[i], tenants[i] = r, r
	}
	opt := driveOptions{steps: p.StepCount}
	var mc *machineCheck
	if p.Check {
		mc = newMachineCheck(runners)
		opt.check, opt.touched = mc.check, mc.touched
	}
	if !p.Faults.Empty() {
		opt.faults = newFaultClock(p.Faults, runners, sh, net)
		mtbf := p.Faults.MTBF(len(p.Tenants))
		for i, t := range p.Tenants {
			if t.Recovery == nil {
				continue
			}
			r := runners[i]
			// A snapshot covers the job's global (weight/optimizer) tensors;
			// its write cost is bounded by the eviction route's narrowest
			// link. Both feed the policy's Young/Daly interval derivation.
			var snap units.Bytes
			for _, tn := range t.Analysis.Graph.Tensors {
				if tn.Kind == dnn.Global {
					snap += tn.Size
				}
			}
			r.ckptBytes = snap
			bw := r.m.cfg.PCIeBandwidth
			if w := sh.dev.EffectiveWriteBandwidth(); w < bw {
				bw = w
			}
			r.ckptEvery = t.Recovery.CheckpointInterval(r.exec.Total(), units.TransferTime(snap, bw), mtbf)
		}
	}
	if err := driveEvents(net, tenants, opt); err != nil {
		return ClusterResult{}, err
	}
	if p.Check {
		err := mc.full()
		if err == nil {
			err = sh.dev.CheckConsistency()
		}
		if err != nil {
			return ClusterResult{}, fmt.Errorf("gpu: check at end of run: %w", err)
		}
	}
	out := ClusterResult{
		Tenants: make([]Result, len(runners)),
		Spans:   make([]TenantSpan, len(runners)),
	}
	for i, r := range runners {
		out.Tenants[i] = r.result()
		arr := r.arrival
		if arr < 0 {
			arr = 0
		}
		out.Spans[i] = TenantSpan{Arrival: arr, Finish: r.doneAt}
		if d := units.Duration(r.doneAt); d > out.Makespan {
			out.Makespan = d
		}
	}
	out.SSDStats = sh.dev.Stats()
	out.WriteAmp = sh.dev.WriteAmplification()
	if p.Engine != nil {
		es := netStats(net)
		for _, r := range runners {
			es.TenantAborts += int64(r.abortedKerns + r.abortedFlows)
			es.TenantRestarts += int64(r.restarts)
			es.CheckpointBytes += int64(r.ckptWritten)
		}
		p.Engine.Add(es)
	}
	return out, nil
}

// netStats reads the flow network's work counters (the EngineStats fields
// every run reports; RunCluster adds its tenants' fault counters).
func netStats(net *flownet.Network) EngineStats {
	return EngineStats{
		FlowRecomputes:  net.Recomputes(),
		FlowSuccessions: net.Successions(),
		ProgressTouches: net.ProgressTouches(),
		ReapScans:       net.ReapScans(),
		FillRounds:      net.FillRounds(),
		FillResScans:    net.FillResScans(),
		FlowAllocs:      net.FlowAllocs(),
	}
}

// tenant is one job the event driver schedules: a training runner (run.go)
// or a serving request (inference.go). Each kind keeps its own state; the
// driver and the Check wake test see only this interface and the sched
// core both kinds embed.
type tenant interface {
	core() *sched
	// admit makes the tenant steppable at the current clock: at time zero,
	// or when its arrival comes due.
	admit() error
	// step advances the tenant as far as it can go without consuming
	// simulated time.
	step()
	// queuedWork reports migration metadata to re-dispatch after network
	// events; redispatch pumps it.
	queuedWork() bool
	redispatch()
	// digest records the state a step can change (check.go).
	digest(d *tenantDigest)
}

// sched is the part of a tenant the driver reads and writes. phase is the
// step machine's state; execEnd is when the executing kernel or decode
// step finishes (phaseExec only); doneAt is the clock value when the tenant
// reached phaseDone, and err a hard simulator error that ends the run. idx
// is the tenant slot and arrival its admission time (<= 0 = present from
// the start). inExecHeap marks a live entry in the driver's kernel-end heap.
// ready is the driver's ready set, which hostWake marks.
type sched struct {
	phase          stepPhase
	execEnd        units.Time
	doneAt         units.Time
	err            error
	idx            int
	arrival        units.Time
	ready          *wakeSet
	inExecHeap     bool
	hostSubscribed bool
}

func (s *sched) core() *sched { return s }

// hostWake marks the tenant ready: a training tenant subscribes it to the
// shared host pool after a blocked wait that followed a denied reservation
// (hostSubscribed dedupes), and a serving server calls it when it grants
// the request blocks.
func (s *sched) hostWake() {
	s.hostSubscribed = false
	s.ready.set(s.idx)
}

// driveOptions is the per-run scheduler configuration: check, when
// non-nil, is the run's own ledger check, and makes the driver run
// checkInvariants at every clock advance; touched, when non-nil, is where
// the driver marks each tenant it steps, delivers a flow to, re-dispatches,
// admits, or (on any fault) might have changed, for check to rescan. steps
// (when non-nil) accumulates the run's step-machine invocations, and
// faults injects a fault schedule. round, when non-nil, is where the
// driver publishes its round cursor.
type driveOptions struct {
	check   func() error
	touched *wakeSet
	steps   *int64
	faults  *faultClock
	round   *roundCursor
}

// roundCursor is how far the driver's step rounds have got: at is the
// clock of the latest step round (-1 before the first), and idx the tenant
// the first round at that clock is stepping, or math.MaxInt once that round
// is over. Tenants woken at a clock all step in its first round, so the
// cursor tells which of them a round has already stepped.
type roundCursor struct {
	at  units.Time
	idx int
}

// passed reports whether the driver has already stepped tenant idx at now,
// had the tenant been woken at now: a round has started at now and has
// moved past idx.
func (c *roundCursor) passed(idx int, now units.Time) bool {
	return c.at == now && c.idx > idx
}

// execHeap is a typed binary min-heap of executing tenants ordered by
// (kernel-end time, index), so wake order is deterministic. It is
// hand-rolled rather than a container/heap user because it is popped once
// per kernel and once per serving request's decode run: the interface
// dispatch and the boxing of every pushed and popped entry cost more than
// the heap itself. The order is total and duplicate entries (stale ones
// left by abortExec) are indistinguishable, so any correct heap pops the
// same sequence.
type execEntry struct {
	at  units.Time
	idx int
}

type execHeap []execEntry

func execLess(a, b execEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

func (h *execHeap) push(e execEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !execLess(e, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *execHeap) pop() execEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	*h = s[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n && execLess(s[r], s[c]) {
			c = r
		}
		if !execLess(s[c], e) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = e
	return top
}

// bitset is a fixed-size index set; wakeSet iterates it in ascending order,
// so wake and dispatch rounds step tenants in deterministic index order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// wakeSet is a bitset with a word-range watermark: iteration touches only
// [lo, hi], the words that can hold set bits, instead of the whole backing
// array. The driver sizes its sets over every tenant, and a serving trace
// creates one tenant per request — 10^6 words-scans per round would make the
// per-event cost O(tenants) and the whole run quadratic. Live indices
// cluster (arrivals admit in index order and old requests finish), so the
// window tracks the active span, not the trace length. Bounds are
// conservative: clear() leaves them alone, and any()/forEach() tighten or
// reset them while scanning.
type wakeSet struct {
	bits   bitset
	lo, hi int // word bounds of possibly-set words; lo > hi means empty
}

func newWakeSet(n int) *wakeSet { return &wakeSet{bits: newBitset(n), lo: 1, hi: 0} }

func (s *wakeSet) set(i int) {
	w := i >> 6
	if s.lo > s.hi {
		s.lo, s.hi = w, w
	} else if w < s.lo {
		s.lo = w
	} else if w > s.hi {
		s.hi = w
	}
	s.bits.set(i)
}

func (s *wakeSet) clear(i int) { s.bits.clear(i) }

// mark sets i in a set that may be nil: the driver's touched-machine
// marks, which exist only in a checked run.
func (s *wakeSet) mark(i int) {
	if s != nil {
		s.set(i)
	}
}

func (s *wakeSet) any() bool {
	for w := s.lo; w <= s.hi; w++ {
		if s.bits[w] != 0 {
			s.lo = w
			return true
		}
	}
	s.lo, s.hi = 1, 0
	return false
}

// drain appends the set indices (ascending) to out and empties the set.
func (s *wakeSet) drain(out []int) []int {
	for wi := s.lo; wi <= s.hi; wi++ {
		w := s.bits[wi]
		for w != 0 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
		s.bits[wi] = 0
	}
	s.lo, s.hi = 1, 0
	return out
}

// forEach visits set indices ascending; the visitor may clear bits and may
// set bits above the cursor. Bounds are rebuilt from what survives.
func (s *wakeSet) forEach(fn func(i int)) {
	lo, hi := s.lo, s.hi
	s.lo, s.hi = 1, 0 // fn's set() calls and the post-word checks rebuild
	for wi := lo; wi <= hi; wi++ {
		w := s.bits[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			fn(i)
		}
		if s.bits[wi] != 0 {
			if s.lo > s.hi || wi < s.lo {
				s.lo = wi
			}
			if wi > s.hi {
				s.hi = wi
			}
		}
	}
}

// driveEvents schedules the tenants on one shared clock: tenants sleep on a
// global time-ordered wakeup structure — the kernel-end heap, the network's
// event heap (whose completions carry owner tags), the host pool's grant
// queue, and the arrival queue — and only woken tenants are stepped.
//
// Determinism rests on two invariants. First, within a round every woken
// tenant is stepped in index order. Second, stepping an un-woken tenant is
// a no-op: a blocked tenant's private state changes only through its own
// flow completions, and its re-step reads shared state (host pool, flash
// allocator) only after such a change — so skipping the no-op steps cannot
// alter any decision. opt.check asserts the second at every clock advance.
// Re-dispatch of the migration metadata queues per network event is
// likewise confined to machines with queued requests (for the others the
// arbiter pop/requeue cycle is observationally empty).
func driveEvents(net *flownet.Network, tenants []tenant, opt driveOptions) error {
	var steps int64
	if opt.steps != nil {
		defer func() { *opt.steps += steps }()
	}
	faults := opt.faults
	touched := opt.touched
	round := opt.round
	if round == nil {
		round = new(roundCursor)
	}
	round.at = -1
	n := len(tenants)
	ready := newWakeSet(n)
	queued := newWakeSet(n)
	var execH execHeap
	var wake []int
	// live holds the admitted tenants for the wake check (checked runs
	// only: mark is a no-op on nil).
	var dig *[2]tenantDigest
	var live *wakeSet
	if opt.check != nil {
		dig = new([2]tenantDigest)
		live = newWakeSet(n)
	}

	// Jobs arriving mid-simulation, ordered by (arrival, index).
	var arrivals []int
	for i, t := range tenants {
		if s := t.core(); s.arrival > 0 {
			s.phase = phasePending
			arrivals = append(arrivals, i)
		}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		a, b := tenants[arrivals[i]].core(), tenants[arrivals[j]].core()
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		return a.idx < b.idx
	})
	arrCursor := 0

	// Host-pool grants wake their tenant by marking it ready (hostWake).
	for _, t := range tenants {
		t.core().ready = ready
	}

	// Day-zero tenants are admitted in tenant order before the clock moves
	// (training tenants' initial host/flash placement contends on the
	// shared pool and array).
	remaining := n
	for i, t := range tenants {
		if t.core().phase == phasePending {
			continue
		}
		if err := t.admit(); err != nil {
			return err
		}
		ready.set(i)
		touched.mark(i)
		live.mark(i)
	}

	for {
		// Step round: every woken tenant, in index order. Wakes raised
		// during the round (e.g. a freed host reservation) are stepped in
		// a follow-up round at the same clock before time advances.
		wake = ready.drain(wake[:0])
		first := round.at != net.Now()
		round.at = net.Now()
		for _, i := range wake {
			if first {
				round.idx = i
			}
			t := tenants[i]
			s := t.core()
			if s.phase == phaseDone || s.phase == phasePending || s.phase == phaseCrashed {
				continue
			}
			steps++
			t.step()
			if s.err != nil {
				return s.err
			}
			touched.mark(i)
			switch s.phase {
			case phaseDone:
				remaining--
			case phaseExec:
				if !s.inExecHeap {
					s.inExecHeap = true
					execH.push(execEntry{at: s.execEnd, idx: i})
				}
			}
			if t.queuedWork() {
				queued.set(i)
			} else {
				queued.clear(i)
			}
		}
		round.idx = math.MaxInt
		if ready.any() {
			continue
		}
		if opt.check != nil {
			if err := checkInvariants(net, tenants, live, opt.check, dig); err != nil {
				return err
			}
		}
		if remaining == 0 {
			return nil
		}

		// Advance the shared clock to the earliest pending event.
		next := units.Forever
		if len(execH) > 0 {
			next = execH[0].at
		}
		if arrCursor < len(arrivals) {
			next = units.MinTime(next, tenants[arrivals[arrCursor]].core().arrival)
		}
		next = units.MinTime(next, units.MinTime(net.NextEvent(), faults.next()))
		if next == units.Forever {
			// Cannot happen: a waiting tenant always has in-flight
			// migrations (otherwise step streams or fails it), an
			// executing tenant bounds next by its kernel end, a pending
			// tenant by its arrival, and a crashed tenant by its repair.
			return fmt.Errorf("gpu: cluster stalled with no pending events")
		}
		net.AdvanceEventwise(next, func(done []*flownet.Flow) {
			for _, f := range done {
				deliver(f)
				o := f.Owner
				if f.Done() {
					// Not succeeded in place: nothing holds the flow any more
					// (deliver cleared migration.fly or runner.ckptFly, and
					// KV swaps never keep theirs).
					net.Release(f)
				}
				if o >= 0 {
					ready.set(o)
					touched.mark(o)
					if tenants[o].queuedWork() {
						queued.set(o)
					} else {
						queued.clear(o)
					}
				}
			}
			// Every machine with queued migration metadata re-dispatches
			// after each event, in index order: the arbiter's transfer-set
			// rotation.
			queued.forEach(func(i int) {
				t := tenants[i]
				t.redispatch()
				touched.mark(i)
				if !t.queuedWork() {
					queued.clear(i)
				}
			})
		})
		now := net.Now()
		for len(execH) > 0 && execH[0].at <= now {
			e := execH.pop()
			tenants[e.idx].core().inExecHeap = false
			ready.set(e.idx)
		}
		// Fault pump point: after the network advance and kernel-end pops,
		// before arrival admission. A crashed
		// victim's heap entries and wake bits go stale and pop as no-ops; a
		// repaired tenant wakes like any other event.
		if faults != nil {
			if touched != nil && faults.next() <= now {
				// A crash tears down its victim's tensor states without
				// stepping it, and faults are rare: rescan every machine.
				for i := range tenants {
					touched.set(i)
				}
			}
			finished, err := faults.apply(now, func(i int) { ready.set(i) })
			if err != nil {
				return err
			}
			remaining -= finished
		}
		for arrCursor < len(arrivals) && tenants[arrivals[arrCursor]].core().arrival <= now {
			i := arrivals[arrCursor]
			arrCursor++
			if err := tenants[i].admit(); err != nil {
				return err
			}
			ready.set(i)
			touched.mark(i)
			live.mark(i)
		}
	}
}
