// Inference serving study: the tiered KV-cache under dynamic request
// traffic. A fixed-seed trace of LLM inference requests (Poisson arrivals,
// near-normal prompt lengths, exponential output lengths) plays against the
// serving engine twice — the single-tier baseline, whose only pressure
// relief is vLLM-style preempt-and-recompute, and the tiered policy, which
// offloads cold KV blocks to host DRAM past a residency threshold and
// reloads them on demand. Rows report the request-latency distribution
// (TTFT and end-to-end, p50/p99), the eviction traffic, and the makespan at
// each trace scale; the host wall-clock cost of simulating each cell (the
// simulator-throughput figure of merit) prints to the session's perf writer
// only, since it is a property of the machine running the simulation, not
// of the simulated system.
package experiments

import (
	"fmt"
	"math"
	"time"

	"g10sim/internal/gpu"
	"g10sim/internal/policy"
	"g10sim/internal/units"
)

// inferenceSeed fixes the request trace; both policy rows replay the same
// trace, so they differ only in KV tiering.
const inferenceSeed = 0x67313069 // "g10i"

// inferencePolicies compares the serving baseline against the tiered
// design at the H10-style 0.8 residency threshold.
func inferencePolicies() []gpu.KVPolicy {
	return []gpu.KVPolicy{policy.SingleTierKV(), policy.TieredKV(0.8)}
}

// InferenceRow summarises one (policy, trace size) cell.
type InferenceRow struct {
	Policy   string
	Requests int

	// TTFT is first-token latency (arrival to prefill completion); E2E the
	// full request span. Percentiles are over the trace's requests.
	TTFTp50ms float64
	TTFTp99ms float64
	E2Ep50s   float64
	E2Ep99s   float64

	Preemptions int64
	Offloads    int64
	Reloads     int64
	OffloadedGB float64
	MakespanSec float64
}

// inferenceSizes reports the studied trace scales: 10^4..10^6 requests in
// full mode, a sub-second pair under Short.
func (s *Session) inferenceSizes() []int {
	if s.opt.Short {
		return []int{240, 960}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// inferenceTraceShape is the request distribution for the session scope.
// Full mode models an 8B-class chat service near saturation: ~151 req/s
// against four servers, prompts N(512, 160) tokens, outputs Exp(160); Short
// shrinks everything onto the churn-scale serving config so the same
// pressure dynamics (waits, offloads, preemptions) appear in milliseconds.
type inferenceTraceShape struct {
	meanGap                          units.Duration
	promptMean, promptDev, promptMax int
	outMean, outMax                  int
}

func (s *Session) inferenceShape() inferenceTraceShape {
	if s.opt.Short {
		return inferenceTraceShape{
			meanGap:    12 * units.Millisecond,
			promptMean: 48, promptDev: 16, promptMax: 96,
			outMean: 40, outMax: 120,
		}
	}
	return inferenceTraceShape{
		meanGap:    6600 * units.Microsecond,
		promptMean: 512, promptDev: 160, promptMax: 1024,
		outMean: 160, outMax: 512,
	}
}

// inferenceTrace builds the n-request arrival trace: exponential
// inter-arrival gaps (Poisson process), Box-Muller prompt lengths,
// exponential output lengths — a pure function of n, the shape, and the
// fixed seed.
func (s *Session) inferenceTrace(n int) []gpu.RequestSpec {
	shape := s.inferenceShape()
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	specs := make([]gpu.RequestSpec, n)
	x := uint64(inferenceSeed)
	var at, u float64
	for i := range specs {
		x, u = fleetLCG(x)
		at += -math.Log(u) * float64(shape.meanGap)
		x, u = fleetLCG(x)
		r := math.Sqrt(-2 * math.Log(u))
		x, u = fleetLCG(x)
		z := r * math.Cos(2*math.Pi*u)
		prompt := clamp(shape.promptMean+int(z*float64(shape.promptDev)), 4, shape.promptMax)
		x, u = fleetLCG(x)
		out := clamp(int(-math.Log(u)*float64(shape.outMean)), 4, shape.outMax)
		specs[i] = gpu.RequestSpec{
			Arrival:      units.Time(at) + 1,
			PromptTokens: prompt,
			OutputTokens: out,
		}
	}
	return specs
}

// inferenceParams assembles one cell's simulation: the defaults (four
// 2048-block servers, 2 MiB blocks) in full mode, the churn-scale config
// under Short.
func (s *Session) inferenceParams(pol gpu.KVPolicy, n int) gpu.InferenceParams {
	p := gpu.InferenceParams{Requests: s.inferenceTrace(n), Policy: pol}
	if s.opt.Short {
		p.Servers = 2
		p.GPUBlocks = 64
		p.HostBlocks = 24
		p.BlockTokens = 4
		p.BlockBytes = 256 * units.KB
	}
	return p
}

// inferenceCell runs (or returns the cached) serving simulation for one
// (policy, size) cell.
func (s *Session) inferenceCell(pol gpu.KVPolicy, n int) (gpu.InferenceResult, time.Duration, error) {
	key := fmt.Sprintf("inference/%s/%d", pol.Name(), n)
	return s.RunInference(key, func() (gpu.InferenceParams, error) {
		return s.inferenceParams(pol, n), nil
	})
}

// Inference runs the serving study and prints per-policy rows at each trace
// scale. The table is deterministic at any Options.Workers setting;
// the per-cell simulated-requests-per-wall-second lines go to Options.Perf.
func Inference(s *Session) ([]InferenceRow, error) {
	w := s.opt.writer()
	pw := s.opt.perfWriter()
	fmt.Fprintln(w, "=== Inference serving: tiered KV-cache under dynamic request traffic ===")
	fmt.Fprintln(w, "fixed-seed Poisson request trace; single-tier preempts (recompute), tiered-kv offloads cold KV to host DRAM")
	fmt.Fprintf(w, "%-12s %9s %11s %11s %10s %10s %9s %9s %9s %9s %10s\n",
		"policy", "requests", "ttft-p50", "ttft-p99", "e2e-p50", "e2e-p99",
		"preempt", "offload", "reload", "off(GB)", "makespan")

	var jobs []func()
	for _, n := range s.inferenceSizes() {
		for _, pol := range inferencePolicies() {
			n, pol := n, pol
			jobs = append(jobs, func() { _, _, _ = s.inferenceCell(pol, n) })
		}
	}
	s.prewarm(jobs)

	var rows []InferenceRow
	for _, n := range s.inferenceSizes() {
		for _, pol := range inferencePolicies() {
			res, wall, err := s.inferenceCell(pol, n)
			if err != nil {
				return nil, err
			}
			ttft := make([]float64, len(res.Requests))
			e2e := make([]float64, len(res.Requests))
			for i, rq := range res.Requests {
				ttft[i] = units.Duration(rq.FirstToken-rq.Arrival).Seconds() * 1e3
				e2e[i] = units.Duration(rq.Finish - rq.Arrival).Seconds()
			}
			ttftSorted, e2eSorted := sortedCopy(ttft), sortedCopy(e2e)
			row := InferenceRow{
				Policy:      pol.Name(),
				Requests:    n,
				TTFTp50ms:   percentile(ttftSorted, 0.50),
				TTFTp99ms:   percentile(ttftSorted, 0.99),
				E2Ep50s:     percentile(e2eSorted, 0.50),
				E2Ep99s:     percentile(e2eSorted, 0.99),
				Preemptions: res.Preemptions,
				Offloads:    res.Offloads,
				Reloads:     res.Reloads,
				OffloadedGB: res.OffloadedBytes.GiB(),
				MakespanSec: res.Makespan.Seconds(),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-12s %9d %9.1fms %9.1fms %9.2fs %9.2fs %9d %9d %9d %9.2f %9.1fs\n",
				row.Policy, row.Requests, row.TTFTp50ms, row.TTFTp99ms,
				row.E2Ep50s, row.E2Ep99s, row.Preemptions, row.Offloads,
				row.Reloads, row.OffloadedGB, row.MakespanSec)
			if wall > 0 {
				fmt.Fprintf(pw, "[inference %s n=%d: %.0f simulated requests/s of host wall time]\n",
					row.Policy, n, float64(n)/wall.Seconds())
			}
		}
	}
	return rows, nil
}
