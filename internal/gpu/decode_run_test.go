package gpu

import (
	"strings"
	"testing"

	"g10sim/internal/flownet"
	"g10sim/internal/units"
)

// tieParams is a one-server serving configuration with round numbers: a
// 1-block span holds 16 tokens, a decode step on it takes 110 ns (on 2
// blocks 120 ns, on 3 blocks 130 ns, on 8 blocks 180 ns), a prefill of t
// tokens takes 1000 + 100·t ns, and a swap starts 89 ns after its decision.
// A 1001 B block crosses the 4e9 B/s tier edge in 250.25 ns, or 500.5 ns
// when two flows share it; the odd byte count keeps every completion off an
// integer nanosecond, so the ceil to the next one is exact.
func tieParams(gpuBlocks int, pol KVPolicy, reqs ...RequestSpec) InferenceParams {
	return InferenceParams{
		Requests:        reqs,
		Policy:          pol,
		Servers:         1,
		GPUBlocks:       gpuBlocks,
		HostBlocks:      8,
		BlockTokens:     16,
		BlockBytes:      1001,
		PrefillBase:     1000,
		PrefillPerToken: 100,
		DecodeBase:      100,
		DecodePerBlock:  10,
		KVLinkBandwidth: 4e9,
		TierBandwidth:   4e9,
		TierLatency:     89,
	}
}

// TestDecodeRunTieRule evicts a request exactly at one of its intermediate
// token ends. The token counts only if a one-exec-per-token driver would
// already have stepped the victim at that clock: in a step round past the
// victim's index, but not in one below it, nor in a KV landing or an
// arrival admission, which run before the clock's step rounds.
func TestDecodeRunTieRule(t *testing.T) {
	// A (arrival 0, prompt 16) prefills until 2600, then decodes 16 tokens
	// on 2 blocks until 4520 and needs a third block. V (arrival 2320,
	// prompt 1) prefills until 3420 and decodes on its one block; its 10th
	// token ends at 4520. The 3-block pool is full, so A's demand preempts
	// V, the younger request. A takes V's block, finishes its last 2 tokens
	// at 4780 and frees 3 blocks, and V re-prefills over 1 + kept tokens.
	a := RequestSpec{Arrival: 0, PromptTokens: 16, OutputTokens: 18}
	v := RequestSpec{Arrival: 2320, PromptTokens: 1, OutputTokens: 15}
	for _, tc := range []struct {
		name   string
		reqs   []RequestSpec
		victim int
		// kept is V's decoded tokens after the eviction; re-prefill ends at
		// 4780 + 1000 + 100·(1 + kept), then the remaining 15 − kept tokens
		// run on one block at 110 ns each.
		kept       int
		prefillEnd units.Time
		finish     units.Time
	}{
		// Index 0 steps first, so V's 10th token has not been stepped yet.
		{"evictor below victim", []RequestSpec{a, v}, 1, 9, 6780, 7440},
		// V steps before A in the round at 4520: its 10th token counts.
		{"evictor above victim", []RequestSpec{v, a}, 0, 10, 6880, 7430},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tieParams(3, singleTierKV(), tc.reqs...)
			p.Check = true
			var prefillEnd units.Time
			p.audit = func(q *infReq) {
				if q.idx == tc.victim && q.state == reqPrefill && q.preempts == 1 && prefillEnd == 0 {
					prefillEnd = q.execEnd
					if q.decoded != tc.kept {
						t.Errorf("victim re-prefills with %d decoded tokens, want %d", q.decoded, tc.kept)
					}
				}
			}
			res, err := RunInference(p)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Requests[tc.victim]
			if got.Preempts != 1 || got.FirstToken != 3420 {
				t.Errorf("victim preempted %d times, first token at %v; want 1 and 3.42µs",
					got.Preempts, got.FirstToken)
			}
			if prefillEnd != tc.prefillEnd || got.Finish != tc.finish {
				t.Errorf("victim re-prefill ends %v and finishes %v, want %v and %v",
					prefillEnd, got.Finish, tc.prefillEnd, tc.finish)
			}
			if other := res.Requests[1-tc.victim]; other.Finish != 4780 {
				t.Errorf("evictor finishes %v, want 4780", other.Finish)
			}
		})
	}

	t.Run("arrival and landing", func(t *testing.T) {
		// V2 (arrival 0) prefills until 1100 and V1 (arrival 100) until
		// 1200; both decode on one block, 110 ns a token. X (prompt 112)
		// arrives at 1420, V1's 2nd token end, and cannot fit beside them,
		// so the 0.1 offload threshold swaps V1 out: it keeps 1 token. V1's
		// KV leaves at 1509 and lands at 1760, V2's 6th token end; X still
		// does not fit, so the landing swaps V2 out: it keeps 5 tokens. V2
		// lands at 2100, X is admitted, prefills until 14300, decodes 16
		// tokens on 8 blocks and finishes at 17180. Both reloads then share
		// the edge from 17269 and land at 17770; V2 decodes its last 10
		// tokens by 18870, V1 its last 14 by 19310.
		p := tieParams(8, kvTestPolicy{name: "tiered", tier: true, offload: 0.1},
			RequestSpec{Arrival: 0, PromptTokens: 1, OutputTokens: 15},
			RequestSpec{Arrival: 100, PromptTokens: 1, OutputTokens: 15},
			RequestSpec{Arrival: 1420, PromptTokens: 112, OutputTokens: 16})
		p.Check = true
		kept := map[int]int{}
		p.audit = func(q *infReq) {
			if q.state == reqSwapQueued && !q.granted {
				kept[q.idx] = q.decoded
			}
		}
		res, err := RunInference(p)
		if err != nil {
			t.Fatal(err)
		}
		if kept[0] != 5 || kept[1] != 1 {
			t.Errorf("swapped out with V2 %d, V1 %d tokens decoded; want 5 and 1", kept[0], kept[1])
		}
		for i, want := range []units.Time{18870, 19310, 17180} {
			got := res.Requests[i]
			if got.Finish != want {
				t.Errorf("request %d finishes %v, want %v", i, got.Finish, want)
			}
			if wantOff := min(1, 2-i); got.Offloads != wantOff || got.Reloads != wantOff || got.Preempts != 0 {
				t.Errorf("request %d: %d offloads, %d reloads, %d preempts; want %d, %d, 0",
					i, got.Offloads, got.Reloads, got.Preempts, wantOff, wantOff)
			}
		}
	})
}

// TestAbortExecAfterRunEnd: an eviction that finds a decode run already
// over is an engine fault. abortExec reports it on the request instead of
// panicking or counting tokens past the run.
func TestAbortExecAfterRunEnd(t *testing.T) {
	p := tieParams(4, singleTierKV(), RequestSpec{PromptTokens: 1, OutputTokens: 15}).withDefaults()
	for _, tc := range []struct {
		name   string
		end    units.Time // run end, relative to the clock at 10 000 ns
		passed bool       // the driver has stepped past the request at now
	}{
		{"ended before now", -1, false},
		{"ended now, already stepped", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := flownet.New()
			net.AdvanceTo(10_000)
			eng := &infEngine{p: p, net: net}
			if tc.passed {
				eng.round = roundCursor{at: net.Now(), idx: 1}
			}
			q := &infReq{eng: eng, spec: p.Requests[0], state: reqDecode, blocks: 1, gpu: 1}
			q.phase, q.execEnd, q.inExecHeap = phaseExec, net.Now()+tc.end, true
			q.abortExec()
			if q.err == nil || !strings.Contains(q.err.Error(), "after its end") {
				t.Fatalf("abortExec past the run's end: err = %v", q.err)
			}
			if q.decoded != 0 || q.inExecHeap {
				t.Errorf("decoded %d, inExecHeap %v; want 0 and false", q.decoded, q.inExecHeap)
			}
		})
	}
}
