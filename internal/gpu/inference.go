// Inference serving workload: LLM requests as short-lived tenants on the
// cluster engine's event driver.
//
// Each request is an infReq: the driver's sched core plus its own serving
// state — no Machine, no page table, no training state. Its step machine
// walks an admission queue, a prefill burst, and a decode loop of runs.
// The hot tensor is the request's KV cache: it grows by one block every
// BlockTokens decoded tokens, out of a fixed per-server block pool that
// every request assigned to that server (round-robin by index) contends
// on. Memory pressure is resolved by the KVPolicy: the single-tier
// baseline preempts the youngest admitted request (vLLM-style recompute —
// the KV is dropped and rebuilt by a later re-prefill over prompt plus the
// tokens already decoded), while the tiered policy swaps the victim's
// blocks to a host-DRAM tier through uvm.MemPool over a distinct flownet
// edge (per-server kv link in series with the shared tier bus) and reloads
// them on demand — the request resumes decoding where it stopped, with no
// recompute and no preemption counted. When GPU residency crosses the
// policy's offload threshold while admissions are waiting, the tiered
// policy additionally offloads proactively, so queued prefills start sooner
// (the TTFT mechanism the H10-style tiered-KV studies measure).
//
// A decode step costs DecodeBase + blocks·DecodePerBlock and touches no
// shared state until the KV must grow, so the request decodes in runs: one
// exec covers every token up to the next block boundary (or the last
// output token), and the request steps once per run, not once per token.
//
// Three scheduling rules keep the pool from thrashing, mirroring vLLM's
// scheduler: pressure resolves immediately (the victim's decode run is
// aborted, keeping the tokens that ended before the eviction but not the
// one in flight, so the demanding request gets its block now rather than a
// kernel-end later, and never targets the demanding request itself);
// preempted requests re-enter the admission queue in arrival order (FCFS —
// not at the back of the line), while swapped-out KV reloads rank behind
// every queued prefill; and admission requires a free-block watermark
// beyond the request's span, so a just-evicted request cannot instantly
// readmit into the same full pool and burn a prefill for zero progress.
//
// The event driver advances requests through the same tenant interface as
// training runners, and determinism rests on the same two invariants:
// woken tenants step in ascending index order within a round, and stepping
// an un-woken request is a strict no-op — blocked states change only
// through explicit grants and evictions (applied by the server's pump at
// deterministic simulation points) and through the request's own flow
// completions, never by re-polling shared state. InferenceParams.Check
// asserts the second, and the block-pool ledgers, at every clock advance.
package gpu

import (
	"fmt"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
)

// KVPolicy decides the serving engine's tiering behaviour. Implementations
// live in internal/policy (SingleTierKV, TieredKV).
type KVPolicy interface {
	Name() string
	// HostTier reports whether pressure victims may swap their KV blocks to
	// the host DRAM tier instead of being preempted.
	HostTier() bool
	// OffloadAt is the GPU block-pool residency fraction above which the
	// engine offloads proactively while admissions are queued (<= 0
	// disables proactive offload; pressure then offloads on demand only).
	OffloadAt() float64
}

// RequestSpec describes one inference request of a trace.
type RequestSpec struct {
	// Arrival admits the request mid-simulation (<= 0: present at start).
	Arrival units.Time
	// PromptTokens is the prefill length; OutputTokens the decode length.
	PromptTokens int
	OutputTokens int
}

// InferenceParams bundles one serving simulation's inputs.
type InferenceParams struct {
	Requests []RequestSpec
	Policy   KVPolicy

	// Servers is the GPU instance count; requests are assigned round-robin
	// by index. GPUBlocks is each server's KV block pool and HostBlocks the
	// host tier's capacity (in blocks, arbitrated by one uvm.MemPool).
	Servers    int
	GPUBlocks  int
	HostBlocks int
	// BlockTokens is the KV block granularity in tokens and BlockBytes its
	// wire size.
	BlockTokens int
	BlockBytes  units.Bytes

	// Compute model: prefill costs PrefillBase + tokens·PrefillPerToken;
	// each decode step costs DecodeBase + blocks·DecodePerBlock (attention
	// reads the whole resident KV, so steps lengthen as the cache grows).
	PrefillBase     units.Duration
	PrefillPerToken units.Duration
	DecodeBase      units.Duration
	DecodePerBlock  units.Duration

	// Tier edge: each server owns a kv link pair (KVLinkBandwidth) in
	// series with the shared host-tier bus pair (TierBandwidth); a swap
	// starts TierLatency after the decision.
	KVLinkBandwidth units.Bandwidth
	TierBandwidth   units.Bandwidth
	TierLatency     units.Duration

	// Check asserts the engine's invariants at every clock advance (see
	// check.go) and fails the run at the first violation, as
	// ClusterParams.Check does. Each advance costs a wake-check step of each
	// live (arrived, unfinished) request, a pass over the active flows, and
	// a pass over each server's requests for the block-pool and host-tier
	// ledgers.
	Check bool
	// StepCount and Engine are scheduler plumbing, as in ClusterParams.
	StepCount *int64
	Engine    *EngineStats

	// audit, when set (package-internal: white-box tests), runs at every
	// request step and at every KV flow landing.
	audit func(*infReq)
}

// withDefaults fills zero fields with the serving defaults: 4 servers of
// 2048 16-token blocks (2 MiB of KV per block — an 8B-class model at fp16),
// a 512-block host tier behind PCIe-class kv links and a host-DRAM-class
// tier bus. The offload threshold itself belongs to the policy.
func (p InferenceParams) withDefaults() InferenceParams {
	if p.Servers == 0 {
		p.Servers = 4
	}
	if p.GPUBlocks == 0 {
		p.GPUBlocks = 2048
	}
	if p.HostBlocks == 0 {
		p.HostBlocks = 512
	}
	if p.BlockTokens == 0 {
		p.BlockTokens = 16
	}
	if p.BlockBytes == 0 {
		p.BlockBytes = 2 * units.MB
	}
	if p.PrefillBase == 0 {
		p.PrefillBase = 4 * units.Millisecond
	}
	if p.PrefillPerToken == 0 {
		p.PrefillPerToken = 120 * units.Microsecond
	}
	if p.DecodeBase == 0 {
		p.DecodeBase = 6 * units.Millisecond
	}
	if p.DecodePerBlock == 0 {
		p.DecodePerBlock = 40 * units.Microsecond
	}
	if p.KVLinkBandwidth == 0 {
		p.KVLinkBandwidth = units.GBps(15.754)
	}
	if p.TierBandwidth == 0 {
		p.TierBandwidth = units.GBps(50)
	}
	if p.TierLatency == 0 {
		p.TierLatency = 500 * units.Microsecond
	}
	return p
}

// validate rejects parameters that describe no serving cluster. It runs
// after withDefaults, which replaced every zero field, so each count, size,
// duration and bandwidth must be positive here; a bandwidth must also not
// be NaN.
func (p InferenceParams) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Servers", int64(p.Servers)},
		{"GPUBlocks", int64(p.GPUBlocks)},
		{"HostBlocks", int64(p.HostBlocks)},
		{"BlockTokens", int64(p.BlockTokens)},
		{"BlockBytes", int64(p.BlockBytes)},
		{"PrefillBase", int64(p.PrefillBase)},
		{"PrefillPerToken", int64(p.PrefillPerToken)},
		{"DecodeBase", int64(p.DecodeBase)},
		{"DecodePerBlock", int64(p.DecodePerBlock)},
		{"TierLatency", int64(p.TierLatency)},
	} {
		if f.v <= 0 {
			return fmt.Errorf("gpu: inference %s %d must be positive", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    units.Bandwidth
	}{
		{"KVLinkBandwidth", p.KVLinkBandwidth},
		{"TierBandwidth", p.TierBandwidth},
	} {
		if !(f.v > 0) {
			return fmt.Errorf("gpu: inference %s %v must be positive", f.name, float64(f.v))
		}
	}
	return nil
}

// RequestStat is one request's measured outcome.
type RequestStat struct {
	Arrival units.Time
	// FirstToken is when the (first) prefill completed — the TTFT deadline.
	// Preemption never moves it: the first token was already emitted.
	FirstToken units.Time
	Finish     units.Time
	Server     int
	// Preempts counts recompute restarts, Offloads swap-outs to the host
	// tier, Reloads swap-ins back.
	Preempts int
	Offloads int
	Reloads  int
}

// InferenceResult reports one serving simulation.
type InferenceResult struct {
	Requests []RequestStat
	// Preemptions, Offloads, Reloads aggregate the per-request counters;
	// OffloadedBytes is the KV volume that crossed the tier edge outward.
	Preemptions    int64
	Offloads       int64
	Reloads        int64
	OffloadedBytes units.Bytes
	Makespan       units.Duration
}

// reqState is the explicit state of a request's serving lifecycle; the
// sched phases (phaseWait / phaseExec / phaseDone / phasePending) carry the
// driver-facing view of the same machine.
type reqState uint8

const (
	// reqQueued: in the server's admission queue, waiting for a prefill
	// block grant (new arrivals and preempted requests alike).
	reqQueued reqState = iota
	// reqPrefill: the prefill burst executes until execEnd.
	reqPrefill
	// reqDecode: a decode run executes until execEnd (or, with homed set,
	// a reload just landed and the next step starts a run).
	reqDecode
	// reqBlockWait: the KV must grow by one block and the pool is empty;
	// waiting for a server grant.
	reqBlockWait
	// reqSwapOut: the KV is flying to the host tier.
	reqSwapOut
	// reqSwapQueued: the KV is host-resident; queued for a block re-grant.
	reqSwapQueued
	// reqSwapIn: the KV is flying back to its re-granted GPU blocks.
	reqSwapIn
	// reqDone: all output tokens decoded.
	reqDone
)

// infReq is one serving request: a tenant whose sched core the driver
// steps, and the request's KV lifecycle on its server.
type infReq struct {
	sched
	eng  *infEngine
	srv  *infServer
	spec RequestSpec

	state reqState
	// blocks is the KV span in blocks; decoded the decode progress in
	// tokens, as of the start of the executing decode run; gpu/host the
	// block counts currently held on each tier (both at once while a swap
	// is in flight). alloc accumulates blocks ever granted from the pool
	// and freed blocks ever returned (preemption drops, swap-out landings,
	// completion) — alloc == freed + gpu at every step, the conservation
	// half of the KV-accounting property test.
	blocks  int
	decoded int
	gpu     int
	host    int
	alloc   int
	freed   int

	// granted marks an unconsumed server grant (admission, reload, or
	// decode block); homed an unconsumed reload landing. Blocked states
	// act only on these flags — never by re-polling pool state — which is
	// what makes skipped steps no-ops.
	granted bool
	homed   bool

	firstToken units.Time
	preempts   int
	offloads   int
	reloads    int
}

// admitEntry orders the admission queue in two classes. Prefill admissions
// (new arrivals and preempted requests) go first, FCFS by (arrival, index)
// — a preempted request re-enters at its original position, ahead of every
// later arrival, matching vLLM's requeue-at-front rule; this plus the
// admission watermark is what keeps eviction from starving its own victim.
// Reload admissions (host-resident KV waiting to swap back) rank behind
// every prefill: the whole point of offloading was to serve queued prefills
// first, so the reload happens lazily, once no prefill wants the pool.
type admitEntry struct {
	reload bool
	key    units.Time
	idx    int
	q      *infReq
}

// admitHeap is a typed binary min-heap over (reload, key, idx), written
// like execHeap; the order is total, so the pop sequence is fixed.
type admitHeap []admitEntry

func admitLess(a, b admitEntry) bool {
	if a.reload != b.reload {
		return !a.reload
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.idx < b.idx
}

func (h *admitHeap) push(e admitEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !admitLess(e, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *admitHeap) pop() admitEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	*h = s[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n && admitLess(s[r], s[c]) {
			c = r
		}
		if !admitLess(s[c], e) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = e
	return top
}

// infServer is one GPU instance: a KV block pool, the requests holding it,
// and the grant queues.
type infServer struct {
	idx      int
	eng      *infEngine
	out, in  *flownet.Resource
	outLabel string
	inLabel  string

	capacity int
	free     int
	// admitPrefill counts the queued prefill-class admissions (the reload
	// class is excluded): proactive offload only makes sense while a
	// prefill wants the pool — offloading to serve a reload would just
	// ping-pong KV across the tier.
	admitPrefill int
	// wm is the admission watermark: the head is granted only when wm free
	// blocks remain after its span, so admission always leaves decode
	// headroom (vLLM's watermark rule, and the anti-thrash guard for a
	// just-evicted head whose own freed span would otherwise readmit it
	// into the identical dead end).
	wm int

	// active holds the admitted requests (those holding GPU blocks), in
	// grant order; victim scans filter it by state.
	active []*infReq

	admit   admitHeap
	waiters []*infReq
	wHead   int

	// pressure is the request whose swap-out is currently in flight: at
	// most one outbound swap per server at a time, and demand pressure
	// waits for it to land (the freed span serves the waiters) instead of
	// stacking evictions.
	pressure *infReq
	pumping  bool
	repump   bool
}

// infEngine is the cluster-wide serving state.
type infEngine struct {
	p    InferenceParams
	net  *flownet.Network
	host *uvm.MemPool

	tierIn, tierOut *flownet.Resource
	servers         []*infServer
	// round is the driver's round cursor: abortExec reads it to settle a
	// decode run's token that ends exactly at the eviction.
	round roundCursor

	preemptions    int64
	offloads       int64
	reloads        int64
	offloadedBytes units.Bytes
}

// kvTransfer is the flow payload of a KV swap; deliver routes completions
// through it.
type kvTransfer struct {
	q   *infReq
	out bool // offload (GPU -> host tier); false: reload
}

// blocksFor is the KV span covering the given token count.
func (e *infEngine) blocksFor(tokens int) int {
	return (tokens + e.p.BlockTokens - 1) / e.p.BlockTokens
}

// RunInference simulates the request trace on the cluster engine and
// returns per-request stats.
func RunInference(p InferenceParams) (InferenceResult, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return InferenceResult{}, err
	}
	if len(p.Requests) == 0 {
		return InferenceResult{}, fmt.Errorf("gpu: inference with no requests")
	}
	if p.Policy == nil {
		return InferenceResult{}, fmt.Errorf("gpu: inference with no KV policy")
	}
	net := flownet.New()
	eng := &infEngine{p: p, net: net}
	for s := 0; s < p.Servers; s++ {
		srv := &infServer{idx: s, eng: eng, capacity: p.GPUBlocks, free: p.GPUBlocks}
		srv.wm = p.GPUBlocks / 100
		if srv.wm < 1 {
			srv.wm = 1
		}
		srv.out = net.AddResource(fmt.Sprintf("srv%d/kv-out", s), p.KVLinkBandwidth)
		srv.in = net.AddResource(fmt.Sprintf("srv%d/kv-in", s), p.KVLinkBandwidth)
		srv.outLabel = fmt.Sprintf("kv-offload:srv%d", s)
		srv.inLabel = fmt.Sprintf("kv-reload:srv%d", s)
		eng.servers = append(eng.servers, srv)
	}
	eng.tierIn = net.AddResource("kvtier-in", p.TierBandwidth)
	eng.tierOut = net.AddResource("kvtier-out", p.TierBandwidth)
	eng.host = uvm.NewMemPool(units.Bytes(p.HostBlocks) * p.BlockBytes)

	reqs := make([]infReq, len(p.Requests))
	tenants := make([]tenant, len(p.Requests))
	for i, spec := range p.Requests {
		if spec.PromptTokens < 1 || spec.OutputTokens < 1 {
			return InferenceResult{}, fmt.Errorf("gpu: request %d: prompt %d / output %d tokens (both must be >= 1)",
				i, spec.PromptTokens, spec.OutputTokens)
		}
		if need := eng.blocksFor(spec.PromptTokens + spec.OutputTokens); need > p.GPUBlocks {
			return InferenceResult{}, fmt.Errorf("gpu: request %d KV span %d blocks exceeds the %d-block server pool",
				i, need, p.GPUBlocks)
		}
		q := &reqs[i]
		q.eng, q.srv, q.spec = eng, eng.servers[i%p.Servers], spec
		q.idx, q.arrival = i, spec.Arrival
		tenants[i] = q
	}
	opt := driveOptions{steps: p.StepCount, round: &eng.round}
	if p.Check {
		opt.check = eng.checkLedgers
	}
	if err := driveEvents(net, tenants, opt); err != nil {
		return InferenceResult{}, err
	}
	out := InferenceResult{Requests: make([]RequestStat, len(reqs))}
	for i := range reqs {
		q := &reqs[i]
		out.Requests[i] = RequestStat{
			Arrival:    units.MaxTime(0, q.arrival),
			FirstToken: q.firstToken,
			Finish:     q.doneAt,
			Server:     q.srv.idx,
			Preempts:   q.preempts,
			Offloads:   q.offloads,
			Reloads:    q.reloads,
		}
		if d := units.Duration(q.doneAt); d > out.Makespan {
			out.Makespan = d
		}
	}
	out.Preemptions = eng.preemptions
	out.Offloads = eng.offloads
	out.Reloads = eng.reloads
	out.OffloadedBytes = eng.offloadedBytes
	if p.Engine != nil {
		p.Engine.Add(netStats(net))
	}
	return out, nil
}

// enqueue joins the server's admission queue in state st: the prefill
// class FCFS by arrival, the reload class behind it.
func (q *infReq) enqueue(st reqState) {
	q.state = st
	q.phase = phaseWait
	reload := st == reqSwapQueued
	if !reload {
		q.srv.admitPrefill++
	}
	q.srv.admit.push(admitEntry{reload: reload, key: units.MaxTime(0, q.spec.Arrival), idx: q.idx, q: q})
	q.srv.pump()
}

// admit joins the request to its server's admission queue.
func (q *infReq) admit() error {
	q.enqueue(reqQueued)
	return nil
}

// queuedWork and redispatch are no-ops: a request has no migration
// queues.
func (q *infReq) queuedWork() bool { return false }
func (q *infReq) redispatch()      {}

// step advances the request as far as it can go without consuming
// simulated time.
func (q *infReq) step() {
	for {
		if a := q.eng.p.audit; a != nil {
			a(q)
		}
		switch q.phase {
		case phaseDone, phasePending:
			return
		case phaseExec:
			if q.eng.net.Now() < q.execEnd {
				return // still executing; the driver advances the clock
			}
			q.execDone()
		default: // phaseWait
			if !q.resume() {
				return // blocked on a grant or a flow landing
			}
		}
	}
}

// resume consumes an outstanding grant or landing; reports false while the
// request stays blocked (a strict no-op, so extra steps are safe).
func (q *infReq) resume() bool {
	switch q.state {
	case reqQueued:
		if !q.granted {
			return false
		}
		q.granted = false
		q.beginPrefill()
		return true
	case reqSwapQueued:
		if !q.granted {
			return false
		}
		q.granted = false
		q.beginSwapIn()
		return true
	case reqBlockWait:
		if !q.granted {
			return false
		}
		q.granted = false
		q.startDecodeExec()
		return true
	case reqDecode:
		// Only a landed reload parks a request here in phaseWait.
		if !q.homed {
			return false
		}
		q.homed = false
		q.beginDecode()
		return true
	}
	return false // reqSwapOut / reqSwapIn: flow landings transition state
}

// execDone handles an exec end: prefill completion records TTFT and enters
// the decode loop; a decode run's end adds its tokens, then finishes or
// decodes on.
func (q *infReq) execDone() {
	switch q.state {
	case reqPrefill:
		if q.firstToken == 0 {
			q.firstToken = q.eng.net.Now()
		}
		q.state = reqDecode
		q.beginDecode()
	case reqDecode:
		n, _ := q.decodeRun()
		q.decoded += n
		if q.decoded >= q.spec.OutputTokens {
			q.finish()
			return
		}
		q.beginDecode()
	}
}

// beginPrefill starts the prefill burst over prompt plus already-decoded
// tokens (a re-prefill after preemption recomputes the dropped KV in one
// pass, the vLLM recompute rule).
func (q *infReq) beginPrefill() {
	p := &q.eng.p
	tokens := q.spec.PromptTokens + q.decoded
	q.state = reqPrefill
	q.execEnd = q.eng.net.Now() + p.PrefillBase + units.Duration(tokens)*p.PrefillPerToken
	q.phase = phaseExec
}

// beginDecode grows the KV when the next token crosses a block boundary —
// stealing a free block or joining the wait queue — then starts a run.
func (q *infReq) beginDecode() {
	need := q.eng.blocksFor(q.spec.PromptTokens + q.decoded + 1)
	grew := false
	if q.blocks < need {
		if !q.srv.takeOne(q) {
			q.state = reqBlockWait
			q.phase = phaseWait
			q.srv.waiters = append(q.srv.waiters, q)
			q.srv.pump()
			return
		}
		grew = true
	}
	q.startDecodeExec()
	if grew {
		// The residency check runs only after the request settles into its
		// exec state: a threshold crossing may pick this very request as
		// the swap victim, which is only safe once its state is coherent
		// (the swap then aborts the step like any mid-exec eviction).
		q.srv.checkThreshold()
	}
}

// startDecodeExec starts a decode run: one exec for every token the
// request can decode on its current span.
func (q *infReq) startDecodeExec() {
	n, step := q.decodeRun()
	q.state = reqDecode
	q.execEnd = q.eng.net.Now() + units.Duration(n)*step
	q.phase = phaseExec
}

// decodeRun is the shape of the decode run that starts at q.decoded: n
// tokens, each step long. The run covers every token the span holds room
// for, up to the output length; blocks and decoded do not change until the
// run ends or aborts, so the shape is the same whenever it is read. Every
// token attends over the same blocks, so the steps are equally long.
func (q *infReq) decodeRun() (n int, step units.Duration) {
	p := &q.eng.p
	n = min(q.blocks*p.BlockTokens-q.spec.PromptTokens-q.decoded, q.spec.OutputTokens-q.decoded)
	return n, p.DecodeBase + units.Duration(q.blocks)*p.DecodePerBlock
}

// beginSwapIn starts the reload flow into the re-granted GPU blocks.
func (q *infReq) beginSwapIn() {
	eng := q.eng
	q.state = reqSwapIn
	q.phase = phaseWait
	bytes := units.Bytes(q.blocks) * eng.p.BlockBytes
	f := eng.net.StartAt(q.srv.inLabel, bytes, eng.net.Now()+eng.p.TierLatency,
		&kvTransfer{q: q}, eng.tierOut, q.srv.in)
	f.Owner = q.idx
}

// abortExec cancels the victim's in-flight exec (an eviction does not wait
// for the exec to end). A decode run keeps the tokens that ended before
// now; the token in flight is not counted. A token that ends exactly now
// counts only if the driver has already stepped the victim at now, had the
// run been one exec per token (roundCursor.passed): outside a step round,
// and in the first round before the victim's index, it would still be
// pending. The driver's kernel-end heap entry goes stale — clearing
// inExecHeap lets the victim's next phaseExec entry be re-scheduled, and
// the stale pop is a no-op step.
func (q *infReq) abortExec() {
	if q.phase != phaseExec {
		return
	}
	q.inExecHeap = false
	if q.state != reqDecode {
		return
	}
	now := q.eng.net.Now()
	n, step := q.decodeRun()
	elapsed := now - (q.execEnd - units.Duration(n)*step)
	done := int(elapsed / step)
	if done > 0 && elapsed%step == 0 && !q.eng.round.passed(q.idx, now) {
		done--
	}
	if done >= n {
		// Every token of the run has ended, so the driver should have
		// stepped the run's end before anything could evict the request.
		q.err = fmt.Errorf("gpu: request %d: decode run ending at %v aborted at %v, after its end", q.idx, q.execEnd, now)
		return
	}
	q.decoded += done
}

// swapOut starts the victim's KV flight to the host tier (the tier
// reservation was already made by the caller).
func (q *infReq) swapOut() {
	eng := q.eng
	q.abortExec()
	q.state = reqSwapOut
	q.phase = phaseWait
	q.host = q.blocks
	bytes := units.Bytes(q.blocks) * eng.p.BlockBytes
	f := eng.net.StartAt(q.srv.outLabel, bytes, eng.net.Now()+eng.p.TierLatency,
		&kvTransfer{q: q, out: true}, q.srv.out, eng.tierIn)
	f.Owner = q.idx
	q.srv.pressure = q
	q.offloads++
	eng.offloads++
	eng.offloadedBytes += bytes
}

// vacate returns the request's GPU blocks to its server and drops it from
// the admitted list.
func (q *infReq) vacate() {
	q.srv.free += q.gpu
	q.freed += q.gpu
	q.gpu = 0
	q.srv.dropActive(q)
}

// preempt drops the KV (recompute later) and requeues the request FCFS.
func (q *infReq) preempt() {
	q.abortExec()
	q.vacate()
	q.blocks = 0
	q.preempts++
	q.eng.preemptions++
	q.enqueue(reqQueued)
}

// finish completes the request at the current clock and returns its blocks.
func (q *infReq) finish() {
	q.vacate()
	q.blocks = 0
	q.state = reqDone
	q.phase = phaseDone
	q.doneAt = q.eng.net.Now()
	q.srv.pump()
}

// kvLanded handles a KV flow completion (called from deliver, at the
// simulation point the flow lands).
func (q *infReq) kvLanded(t *kvTransfer) {
	eng := q.eng
	srv := q.srv
	if t.out {
		// Offload landed: the GPU copy retires; requeue for a reload.
		q.vacate()
		if srv.pressure == q {
			srv.pressure = nil
		}
		q.enqueue(reqSwapQueued)
	} else {
		// Reload landed: the host copy retires; the decode loop resumes on
		// the request's next step.
		eng.host.Release(units.Bytes(q.host) * eng.p.BlockBytes)
		q.host = 0
		q.reloads++
		eng.reloads++
		q.state = reqDecode
		q.homed = true
	}
	if a := eng.p.audit; a != nil {
		a(q)
	}
}

// admitNeed is the block grant that readmits this queued request: the full
// KV span for a reload, the (re)prefill span otherwise.
func (q *infReq) admitNeed() int {
	if q.state == reqSwapQueued {
		return q.blocks
	}
	return q.eng.blocksFor(q.spec.PromptTokens + q.decoded)
}

// takeOne takes one free block for a decode step, whether the request
// steals it or the pump grants it to a waiter. No threshold check here:
// the caller is mid-transition, and the check may victimize the caller.
func (srv *infServer) takeOne(q *infReq) bool {
	if srv.free < 1 {
		return false
	}
	srv.free--
	q.blocks++
	q.gpu++
	q.alloc++
	return true
}

// nextWaiter pops the oldest live decode waiter (entries whose state moved
// on — preempted, swapped, finished — are skipped lazily).
func (srv *infServer) nextWaiter() *infReq {
	for srv.wHead < len(srv.waiters) {
		q := srv.waiters[srv.wHead]
		srv.wHead++
		if q.state == reqBlockWait && !q.granted {
			return q
		}
	}
	srv.waiters = srv.waiters[:0]
	srv.wHead = 0
	return nil
}

// firstWaiter returns the oldest ungranted decode waiter without
// consuming it, nil if there is none.
func (srv *infServer) firstWaiter() *infReq {
	for i := srv.wHead; i < len(srv.waiters); i++ {
		if q := srv.waiters[i]; q.state == reqBlockWait && !q.granted {
			return q
		}
	}
	return nil
}

// pump is the server's grant pass, run after anything frees or queues
// blocks: decode waiters first (running requests outrank admissions, one
// block each, FIFO), then the admission queue head — granted only when its
// whole span plus the watermark is free at once, so admission never eats
// the headroom running decodes live on — then the proactive-offload check,
// then demand pressure while ungranted waiters remain. Re-entrant calls
// (an eviction requeue frees blocks mid-pass) fold into one loop.
func (srv *infServer) pump() {
	if srv.pumping {
		srv.repump = true
		return
	}
	srv.pumping = true
	for {
		srv.repump = false
		for srv.free > 0 {
			q := srv.nextWaiter()
			if q == nil {
				break
			}
			srv.takeOne(q)
			q.granted = true
			q.hostWake()
		}
		for len(srv.admit) > 0 {
			head := srv.admit[0].q
			need := head.admitNeed()
			wm := srv.wm
			if need+wm > srv.capacity {
				// A span near the whole pool cannot leave the full
				// watermark behind; shrink it so such a request is still
				// admittable when alone.
				wm = srv.capacity - need
			}
			if need+wm > srv.free {
				break
			}
			srv.free -= need
			if e := srv.admit.pop(); !e.reload {
				srv.admitPrefill--
			}
			srv.grantAdmit(head, need)
		}
		srv.checkThreshold()
		if srv.firstWaiter() != nil {
			srv.demand()
		}
		if !srv.repump {
			break
		}
	}
	srv.pumping = false
}

// grantAdmit hands the popped admission head its blocks.
func (srv *infServer) grantAdmit(q *infReq, need int) {
	if q.state == reqSwapQueued {
		q.gpu = need // the KV stays host-resident until the reload lands
	} else {
		q.blocks = need
		q.gpu = need
	}
	q.alloc += need
	srv.active = append(srv.active, q)
	q.granted = true
	q.hostWake()
}

// demand resolves decode pressure immediately: the youngest admitted
// request vacates — swapping to the host tier when the policy and pool
// allow, else preempted — so the waiting decoder gets its block at this
// simulation point, not a kernel-end later. While a swap-out is already in
// flight, demand waits for its landing instead of stacking evictions.
func (srv *infServer) demand() {
	if srv.pressure != nil {
		return
	}
	v := srv.pickVictim()
	if v == nil {
		return
	}
	eng := srv.eng
	if eng.p.Policy.HostTier() && eng.host.Reserve(units.Bytes(v.blocks)*eng.p.BlockBytes) {
		v.swapOut()
		return
	}
	v.preempt()
}

// checkThreshold starts a proactive offload when residency crossed the
// policy threshold while prefill admissions wait (tiered policies only; at
// most one outbound swap per server, and never a preemption — a full host
// tier just stands the action down).
func (srv *infServer) checkThreshold() {
	p := &srv.eng.p
	if !p.Policy.HostTier() || srv.pressure != nil || srv.admitPrefill == 0 {
		return
	}
	th := p.Policy.OffloadAt()
	if th <= 0 {
		return
	}
	if used := srv.capacity - srv.free; float64(used) > th*float64(srv.capacity) {
		v := srv.pickVictim()
		if v == nil {
			return
		}
		if srv.eng.host.Reserve(units.Bytes(v.blocks) * p.BlockBytes) {
			v.swapOut()
		}
	}
}

// pickVictim selects the youngest admitted request that is decoding or
// block-blocked (the vLLM preemption order: last arrival, ties by index)
// and is not already claimed by an unconsumed grant or landing. The oldest
// ungranted waiter — the next demand beneficiary — is never the victim:
// every eviction must buy at least one decoded token for someone, or
// pressure cycles evict their own beneficiaries and the pool thrashes
// without progress.
func (srv *infServer) pickVictim() *infReq {
	protect := srv.firstWaiter()
	var v *infReq
	for _, q := range srv.active {
		if q == protect || q.granted || q.homed {
			continue
		}
		if q.state != reqBlockWait && !(q.state == reqDecode && q.phase == phaseExec) {
			continue
		}
		if v == nil || q.spec.Arrival > v.spec.Arrival ||
			(q.spec.Arrival == v.spec.Arrival && q.idx > v.idx) {
			v = q
		}
	}
	return v
}

// dropActive removes q from the admitted list, preserving order.
func (srv *infServer) dropActive(q *infReq) {
	for i, a := range srv.active {
		if a == q {
			srv.active = append(srv.active[:i], srv.active[i+1:]...)
			return
		}
	}
}
