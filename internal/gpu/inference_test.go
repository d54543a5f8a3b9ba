package gpu

import (
	"math"
	"reflect"
	"runtime"
	"sort"
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
// ledgers at every clock advance — for both KV policies; the checked run
// must match the unchecked one exactly.
func TestInferenceDriversMatch(t *testing.T) {
	for _, polName := range []string{"single", "tiered"} {
		pol := singleTierKV
		if polName == "tiered" {
			pol = tieredKV
		}
		ref, err := RunInference(churnParams(240, 0x67313069, pol()))
		if err != nil {
			t.Fatalf("%s events: %v", polName, err)
		}
		if ref.Makespan <= 0 {
			t.Fatalf("%s: empty run (makespan %v)", polName, ref.Makespan)
		}
		p := churnParams(240, 0x67313069, pol())
		p.Check = true
		got, err := RunInference(p)
		if err != nil {
			t.Fatalf("%s checked: %v", polName, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: checked result diverged from the unchecked run", polName)
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
					// Executing a step always holds the grown span; parked
					// between steps (a reload just landed, or the aborted
					// step's block survived the swap round-trip) the span is
					// within one block of the decoded tokens.
					if q.phase == phaseExec {
						if q.blocks != span(pd+1) {
							fail("decode-exec accounting")
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
	p := InferenceParams{
		Requests: servingTrace(5000, 1, 8*units.Millisecond, 512, 160, 1024, 160, 512),
		Policy:   tieredKV(),
	}
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

// BenchmarkInferenceDrive is the serving driver's layer benchmark: 5k
// requests of the benchmark's chat-service shape (125 req/s, prompts
// N(512, 160), outputs Exp(160)) under tiered KV on the default four
// servers. Each decoded token is one tenant exec, so the kernel-end heap
// and the admission heap carry this loop; steps/op is its exact work count.
func BenchmarkInferenceDrive(b *testing.B) {
	p := InferenceParams{
		Requests: servingTrace(5000, 1, 8*units.Millisecond, 512, 160, 1024, 160, 512),
		Policy:   tieredKV(),
	}
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
