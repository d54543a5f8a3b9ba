package gpu

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"g10sim/internal/units"
)

// kvTestPolicy is a local KVPolicy (internal/policy would import-cycle into
// package gpu's tests via gpu itself; the real implementations live there
// and are structurally identical).
type kvTestPolicy struct {
	name    string
	tier    bool
	offload float64
}

func (p kvTestPolicy) Name() string       { return p.name }
func (p kvTestPolicy) HostTier() bool     { return p.tier }
func (p kvTestPolicy) OffloadAt() float64 { return p.offload }

func singleTierKV() KVPolicy { return kvTestPolicy{name: "single-tier"} }
func tieredKV() KVPolicy {
	return kvTestPolicy{name: "tiered-kv", tier: true, offload: 0.8}
}

// servingTrace builds a fixed-seed request trace: Poisson arrivals with the
// given mean gap, near-normal prompt lengths (Box-Muller), exponential
// output lengths — the same shape the experiments figure uses, scaled down.
func servingTrace(n int, seed uint64, meanGap units.Duration,
	promptMean, promptDev, promptMax, outMean, outMax int) []RequestSpec {
	x := seed
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (float64(x>>11) + 1) / (1 << 53)
	}
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	specs := make([]RequestSpec, n)
	var at float64
	for i := range specs {
		at += -math.Log(next()) * float64(meanGap)
		z := math.Sqrt(-2*math.Log(next())) * math.Cos(2*math.Pi*next())
		prompt := clamp(promptMean+int(z*float64(promptDev)), 4, promptMax)
		out := clamp(int(-math.Log(next())*float64(outMean)), 4, outMax)
		specs[i] = RequestSpec{
			Arrival:      units.Time(at) + 1,
			PromptTokens: prompt,
			OutputTokens: out,
		}
	}
	return specs
}

// churnParams is a deliberately tiny serving configuration that forces
// heavy block-pool churn (waits, preemptions, swaps) on a short trace.
func churnParams(n int, seed uint64, pol KVPolicy) InferenceParams {
	return InferenceParams{
		Requests:    servingTrace(n, seed, 12*units.Millisecond, 48, 16, 96, 40, 120),
		Policy:      pol,
		Servers:     2,
		GPUBlocks:   64,
		HostBlocks:  24,
		BlockTokens: 4,
		BlockBytes:  256 * units.KB,
	}
}

// TestInferenceDriversMatch runs the serving engine under Check — wake
// completeness, the max-min certificate and the block-pool and host-tier
// ledgers at every clock advance — for both KV policies.
func TestInferenceDriversMatch(t *testing.T) {
	for _, polName := range []string{"single", "tiered"} {
		pol := singleTierKV
		if polName == "tiered" {
			pol = tieredKV
		}
		p := churnParams(240, 0x67313069, pol())
		p.Check = true
		res, err := RunInference(p)
		if err != nil {
			t.Fatalf("%s checked: %v", polName, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: empty run (makespan %v)", polName, res.Makespan)
		}
	}
}

// TestInferenceKVAccounting is the KV-growth property test: across fuzzed
// seeds and both policies, every request at every step satisfies the exact
// block-accounting table — resident + offloaded + freed blocks reconcile
// with the tokens decoded so far — and, under Check, the server pools and
// host tier conserve capacity at every clock advance.
func TestInferenceKVAccounting(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 0x67313069, 0xdeadbeef}
	for _, seed := range seeds {
		for _, pol := range []KVPolicy{singleTierKV(), tieredKV()} {
			p := churnParams(160, seed, pol)
			p.Check = true
			audits := 0
			p.audit = func(q *infReq) {
				audits++
				eng := q.eng
				span := func(tokens int) int { return eng.blocksFor(tokens) }
				pd := q.spec.PromptTokens + q.decoded
				fail := func(why string) {
					t.Fatalf("seed %#x %s req %d state %d: %s (blocks %d gpu %d host %d alloc %d freed %d decoded %d)",
						seed, pol.Name(), q.idx, q.state, why, q.blocks, q.gpu, q.host, q.alloc, q.freed, q.decoded)
				}
				if q.alloc != q.freed+q.gpu {
					fail("alloc != freed + resident")
				}
				switch q.state {
				case reqQueued:
					want := 0
					if q.granted {
						want = span(pd)
					}
					if q.blocks != want || q.gpu != want || q.host != 0 {
						fail("queued accounting")
					}
				case reqPrefill:
					if q.blocks != span(pd) || q.gpu != q.blocks || q.host != 0 {
						fail("prefill accounting")
					}
				case reqDecode:
					// Executing a run always holds the grown span, and the
					// run decodes at least one token, never past its span or
					// the output length; parked between runs (a reload just
					// landed, or the aborted run's block survived the swap
					// round-trip) the span is within one block of the
					// decoded tokens.
					if q.phase == phaseExec {
						if q.blocks != span(pd+1) {
							fail("decode-exec accounting")
						}
						n, _ := q.decodeRun()
						if n < 1 || pd+n > q.blocks*eng.p.BlockTokens || q.decoded+n > q.spec.OutputTokens {
							fail("decode-run shape")
						}
					} else if q.blocks != span(pd) && q.blocks != span(pd+1) {
						fail("decode-wait accounting")
					}
					if q.gpu != q.blocks || q.host != 0 {
						fail("decode accounting")
					}
				case reqBlockWait:
					want := span(pd)
					if q.granted {
						want = span(pd + 1)
					}
					if q.blocks != want || q.gpu != q.blocks || q.host != 0 {
						fail("block-wait accounting")
					}
				case reqSwapOut, reqSwapIn:
					// A victim taken mid-step carries the aborted token's
					// block through the swap round-trip.
					if q.blocks != span(pd) && q.blocks != span(pd+1) {
						fail("swap span accounting")
					}
					if q.gpu != q.blocks || q.host != q.blocks {
						fail("swap residency accounting")
					}
				case reqSwapQueued:
					wantGPU := 0
					if q.granted {
						wantGPU = q.blocks
					}
					if q.blocks != span(pd) && q.blocks != span(pd+1) {
						fail("swap-queued span accounting")
					}
					if q.gpu != wantGPU || q.host != q.blocks {
						fail("swap-queued accounting")
					}
				case reqDone:
					if q.blocks != 0 || q.gpu != 0 || q.host != 0 || q.decoded != q.spec.OutputTokens {
						fail("done accounting")
					}
				}
			}
			res, err := RunInference(p)
			if err != nil {
				t.Fatalf("seed %#x %s: %v", seed, pol.Name(), err)
			}
			if audits == 0 {
				t.Fatalf("seed %#x %s: audit hook never ran", seed, pol.Name())
			}
			for i, rq := range res.Requests {
				if rq.FirstToken <= rq.Arrival || rq.Finish < rq.FirstToken {
					t.Fatalf("seed %#x %s req %d: inverted timeline %v -> %v -> %v",
						seed, pol.Name(), i, rq.Arrival, rq.FirstToken, rq.Finish)
				}
				if rq.Offloads != rq.Reloads {
					t.Fatalf("seed %#x %s req %d: %d offloads but %d reloads at completion",
						seed, pol.Name(), i, rq.Offloads, rq.Reloads)
				}
			}
			if pol.HostTier() {
				if res.Offloads != res.Reloads {
					t.Fatalf("seed %#x tiered: offloads %d != reloads %d", seed, res.Offloads, res.Reloads)
				}
			} else if res.Offloads != 0 || res.OffloadedBytes != 0 {
				t.Fatalf("seed %#x single-tier offloaded %d flows / %v", seed, res.Offloads, res.OffloadedBytes)
			}
		}
	}
}

// TestInferenceEngineStats pins the engine-stats plumbing through the
// serving path: a tiered run drives the flow network (fill rounds, progress
// touches) and the counters accumulate across runs like Session does.
func TestInferenceEngineStats(t *testing.T) {
	var es EngineStats
	p := churnParams(240, 0x67313069, tieredKV())
	p.Engine = &es
	res, err := RunInference(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloads == 0 {
		t.Fatal("tiered churn run performed no offloads; the trace is undersized")
	}
	if es.FillRounds == 0 || es.ProgressTouches == 0 || es.ReapScans == 0 {
		t.Errorf("tiered run left engine counters empty: %+v", es)
	}
	first := es
	p2 := churnParams(240, 0x67313069, tieredKV())
	p2.Engine = &es
	if _, err := RunInference(p2); err != nil {
		t.Fatal(err)
	}
	if es.FillRounds != 2*first.FillRounds || es.ProgressTouches != 2*first.ProgressTouches {
		t.Errorf("engine stats did not accumulate: first %+v, after second run %+v", first, es)
	}
}

// TestInferenceTieredClaim is the acceptance claim at full scale: on the
// 10^4-request trace the tiered policy strictly reduces preemptions and
// improves TTFT p99 against the single-tier baseline.
func TestInferenceTieredClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale serving comparison (10^4 requests)")
	}
	trace := servingTrace(10_000, 0x67313069, 6600*units.Microsecond, 512, 160, 1024, 160, 512)
	run := func(pol KVPolicy) InferenceResult {
		res, err := RunInference(InferenceParams{Requests: trace, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(singleTierKV())
	tiered := run(tieredKV())
	if single.Preemptions == 0 {
		t.Fatal("single-tier baseline never preempted; the trace does not pressure the pool")
	}
	if tiered.Preemptions >= single.Preemptions {
		t.Errorf("tiered preemptions %d not strictly below single-tier %d",
			tiered.Preemptions, single.Preemptions)
	}
	p99 := func(res InferenceResult) units.Duration {
		ttft := make([]units.Duration, len(res.Requests))
		for i, rq := range res.Requests {
			ttft[i] = rq.FirstToken - rq.Arrival
		}
		return percentileDuration(ttft, 0.99)
	}
	sp, tp := p99(single), p99(tiered)
	if tp >= sp {
		t.Errorf("tiered TTFT p99 %v not below single-tier %v", tp, sp)
	}
}

// percentileDuration reports the q-quantile (nearest-rank) of ds.
func percentileDuration(ds []units.Duration, q float64) units.Duration {
	sorted := append([]units.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestInferenceAllocPerRequest bounds the heap bytes a serving run
// allocates per request on BenchmarkInferenceDrive's trace. A request
// carries only the driver's sched core and its own KV state, about 350 B
// per request in all; the bound sits well below the ~980 B a request costs
// when it also carries a training runner's state.
func TestInferenceAllocPerRequest(t *testing.T) {
	const maxPerRequest = 640
	p := driveParams()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunInference(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(p.Requests))
	t.Logf("serving run allocated %d B per request", per)
	if per > maxPerRequest {
		t.Errorf("serving run allocated %d B per request, want <= %d", per, maxPerRequest)
	}
}

// TestInferenceStepsPerRequest bounds the driver steps a serving request
// costs on BenchmarkInferenceDrive's trace. A request steps once per decode
// run, and a run covers every token its KV span holds room for: about 12.7
// steps per request, against about 154 when every decoded token is its own
// exec.
func TestInferenceStepsPerRequest(t *testing.T) {
	const maxPerRequest = 16
	p := driveParams()
	var steps int64
	p.StepCount = &steps
	if _, err := RunInference(p); err != nil {
		t.Fatal(err)
	}
	per := float64(steps) / float64(len(p.Requests))
	t.Logf("serving run took %.1f steps per request", per)
	if per > maxPerRequest {
		t.Errorf("serving run took %.1f steps per request, want <= %d", per, maxPerRequest)
	}
}

// TestInferenceRejectsBadParams: parameters that describe no serving
// cluster fail at the API boundary with an error, not a panic or a
// meaningless run.
func TestInferenceRejectsBadParams(t *testing.T) {
	nan := units.Bandwidth(math.NaN())
	for _, tc := range []struct {
		name string
		set  func(p *InferenceParams)
		want string
	}{
		{"negative servers", func(p *InferenceParams) { p.Servers = -1 }, "Servers"},
		{"negative GPU blocks", func(p *InferenceParams) { p.GPUBlocks = -4 }, "GPUBlocks"},
		{"negative host blocks", func(p *InferenceParams) { p.HostBlocks = -1 }, "HostBlocks"},
		{"negative block tokens", func(p *InferenceParams) { p.BlockTokens = -16 }, "BlockTokens"},
		{"negative block bytes", func(p *InferenceParams) { p.BlockBytes = -1 }, "BlockBytes"},
		{"negative prefill base", func(p *InferenceParams) { p.PrefillBase = -1 }, "PrefillBase"},
		{"negative prefill per token", func(p *InferenceParams) { p.PrefillPerToken = -1 }, "PrefillPerToken"},
		{"negative decode base", func(p *InferenceParams) { p.DecodeBase = -6 * units.Millisecond }, "DecodeBase"},
		{"negative decode per block", func(p *InferenceParams) { p.DecodePerBlock = -1 }, "DecodePerBlock"},
		{"negative tier latency", func(p *InferenceParams) { p.TierLatency = -1 }, "TierLatency"},
		{"negative kv link", func(p *InferenceParams) { p.KVLinkBandwidth = -1 }, "KVLinkBandwidth"},
		{"NaN kv link", func(p *InferenceParams) { p.KVLinkBandwidth = nan }, "KVLinkBandwidth"},
		{"NaN tier bus", func(p *InferenceParams) { p.TierBandwidth = nan }, "TierBandwidth"},
		{"no requests", func(p *InferenceParams) { p.Requests = nil }, "no requests"},
		{"no policy", func(p *InferenceParams) { p.Policy = nil }, "no KV policy"},
		{"empty prompt", func(p *InferenceParams) { p.Requests = []RequestSpec{{OutputTokens: 1}} }, "both must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := churnParams(8, 1, tieredKV())
			tc.set(&p)
			if _, err := RunInference(p); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// driveParams is BenchmarkInferenceDrive's serving run.
func driveParams() InferenceParams {
	return InferenceParams{
		Requests: servingTrace(5000, 1, 8*units.Millisecond, 512, 160, 1024, 160, 512),
		Policy:   tieredKV(),
	}
}

// TestInferenceDriveAllocsPerRequest pins the serving driver's allocations
// on BenchmarkInferenceDrive's run: the per-run setup and the slices that
// grow with the trace amortize to well under one allocation per request,
// so anything allocated once per request (a wake closure, say) shows.
func TestInferenceDriveAllocsPerRequest(t *testing.T) {
	const maxPerRequest = 0.5
	p := driveParams()
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		if _, e := RunInference(p); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	per := allocs / float64(len(p.Requests))
	t.Logf("serving driver allocated %.0f times per run, %.3f per request", allocs, per)
	if per > maxPerRequest {
		t.Errorf("serving driver allocated %.3f times per request, want <= %v", per, maxPerRequest)
	}
}

// BenchmarkInferenceDrive is the serving driver's layer benchmark: 5k
// requests of the benchmark's chat-service shape (125 req/s, prompts
// N(512, 160), outputs Exp(160)) under tiered KV on the default four
// servers. Each decode run (every token up to the next KV block boundary)
// is one tenant exec, so the kernel-end heap and the admission heap carry
// this loop; steps/op is its exact work count.
func BenchmarkInferenceDrive(b *testing.B) {
	p := driveParams()
	var steps int64
	p.StepCount = &steps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunInference(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}
