package main

import (
	"math"
	"math/rand/v2"

	"g10sim/internal/gpu"
	"g10sim/internal/units"
)

// The benchmark owns every random input. Each generator draws from its own
// PCG stream of the command-line seed, so one workload's inputs never shift
// when another generator changes, and the simulator receives only the
// generated traces.
const (
	streamTrain uint64 = iota + 1
	streamFleet
	streamServe
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// perturbSeeds draws one profile.Trace.Perturb seed per train model.
func perturbSeeds(seed int64, n int) []int64 {
	r := newRand(seed, streamTrain)
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64()
	}
	return out
}

// fleetArrivals draws n arrival times on a jittered grid: job i arrives
// uniformly within [i·meanGap, (i+1)·meanGap). The mean rate is a Poisson
// process's, but without its bursts: with Poisson gaps, 128 jobs gave
// seed-to-seed spreads of 0.1–0.28 in every job-time percentile, which no
// regression bound could hold.
func fleetArrivals(seed int64, n int, meanGap units.Duration) []units.Time {
	r := newRand(seed, streamFleet)
	out := make([]units.Time, n)
	for i := range out {
		out[i] = units.Time((float64(i) + r.Float64()) * float64(meanGap))
	}
	return out
}

// Serving trace shape: an 8B-class chat service on the default four
// servers — 125 req/s, prompts N(512, 160) tokens, outputs Exp(160) tokens,
// both clamped to what one server's KV pool can hold. The rate sits below
// the inference figure's ~151 req/s: there, preemption cascades made the
// TTFT tail chaotic across seeds (p99 778–1902 ms over six seeds), while at
// 125 req/s the tiered policy still offloads ~1000 times per trace and the
// tail repeats within a few percent.
const (
	serveMeanGap   = 8000 * units.Microsecond
	servePromptMu  = 512
	servePromptDev = 160
	servePromptMax = 1024
	serveOutMean   = 160
	serveOutMax    = 512
	serveMinTokens = 4
)

// serveTrace draws n requests with Poisson arrivals (every arrival > 0, so
// each request joins mid-run).
func serveTrace(seed int64, n int) []gpu.RequestSpec {
	r := newRand(seed, streamServe)
	clamp := func(v, hi int) int { return max(serveMinTokens, min(v, hi)) }
	out := make([]gpu.RequestSpec, n)
	var at float64
	for i := range out {
		at += r.ExpFloat64() * float64(serveMeanGap)
		prompt := servePromptMu + int(math.Round(r.NormFloat64()*servePromptDev))
		output := int(r.ExpFloat64() * serveOutMean)
		out[i] = gpu.RequestSpec{
			Arrival:      units.Time(at) + 1,
			PromptTokens: clamp(prompt, servePromptMax),
			OutputTokens: clamp(output, serveOutMax),
		}
	}
	return out
}
