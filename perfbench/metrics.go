package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"g10sim/internal/ssd"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// jobTimes is one simulated job on the simulated clock, in seconds: a
// training run or fleet job (first = its first finished iteration) or a
// serving request (first = its first token).
type jobTimes struct {
	arrival, first, finish float64
	failed                 bool
}

// simView is a pass's simulated outcome as the end-to-end metrics read it.
type simView struct {
	jobs    []jobTimes
	norm    []float64 // ideal ÷ simulated time, per job of the design under study
	speedup []float64 // baseline ÷ design time, per comparable pair
}

// simMetrics computes the sim_* end-to-end metrics. Percentiles are nearest
// rank over the pass's finished jobs.
func simMetrics(v simView) metrics {
	var jct, ttft []float64
	var makespan float64
	for _, j := range v.jobs {
		makespan = math.Max(makespan, j.finish)
		if j.failed {
			continue
		}
		jct = append(jct, j.finish-j.arrival)
		ttft = append(ttft, j.first-j.arrival)
	}
	m := metrics{}
	m.set("sim_norm_perf", "ratio", geomean(v.norm))
	m.set("sim_speedup_vs_deepum", "ratio", geomean(v.speedup))
	m.set("sim_makespan_s", "s", makespan)
	m.set("sim_jct_p50_s", "s", nearestRank(jct, 0.50))
	m.set("sim_jct_p90_s", "s", nearestRank(jct, 0.90))
	m.set("sim_ttft_p50_ms", "ms", 1e3*nearestRank(ttft, 0.50))
	m.set("sim_ttft_p99_ms", "ms", 1e3*nearestRank(ttft, 0.99))
	m.set("sim_e2e_p99_s", "s", nearestRank(jct, 0.99))
	return m
}

// layerMetrics computes the traced run's per-layer counters of one pass.
// Counters sum over every simulation the pass ran.
func layerMetrics(p *pass, tr *tracer) metrics {
	m := metrics{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m.set("models.build_ms", "ms", ms(tr.spent[layerModels]))
	m.set("vitality.analyze_ms", "ms", ms(tr.spent[layerVitality]))
	m.set("planner.plan_ms", "ms", ms(tr.spent[layerPlanner]))
	m.set("planner.calls", "count", float64(tr.planCalls))
	m.set("gpu.self_ms", "ms", ms(tr.spent[layerRun]-tr.spent[layerPlanner]))
	m.set("gpu.steps", "count", float64(p.steps))
	m.set("gpu.steps_per_tenant", "count", float64(p.steps)/float64(max(1, p.tenants)))

	var traffic, faultedPages, faults, overflow int64
	var stall, iter, tlbSum float64
	var runs int
	var dev ssd.Stats
	for _, c := range p.clusters {
		for _, r := range c.Tenants {
			traffic += int64(r.TotalTraffic())
			faults += r.Faults
			faultedPages += r.FaultedPages
			overflow += int64(r.OverflowKernels)
			if !r.Failed {
				stall += r.StallTime.Seconds()
				iter += r.IterationTime.Seconds()
				tlbSum += r.TLBHitRate
				runs++
			}
		}
		dev.HostWriteBytes += c.SSDStats.HostWriteBytes
		dev.NANDWriteBytes += c.SSDStats.NANDWriteBytes
		dev.GCRelocated += c.SSDStats.GCRelocated
		dev.GCRuns += c.SSDStats.GCRuns
		dev.Erases += c.SSDStats.Erases
	}
	gib := func(b int64) float64 { return float64(b) / (1 << 30) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m.set("gpu.migration_gb", "GB", gib(traffic))
	m.set("gpu.stall_frac", "ratio", ratio(stall, iter))
	m.set("gpu.overflow_kernels", "count", float64(overflow))

	e := p.engine
	m.set("flownet.recomputes", "count", float64(e.FlowRecomputes))
	m.set("flownet.successions", "count", float64(e.FlowSuccessions))
	m.set("flownet.fill_rounds", "count", float64(e.FillRounds))
	m.set("flownet.fill_res_scans", "count", float64(e.FillResScans))
	m.set("flownet.progress_touches", "count", float64(e.ProgressTouches))
	m.set("flownet.reap_scans", "count", float64(e.ReapScans))
	m.set("flownet.frontier_ratio", "ratio", ratio(float64(e.FrontierReuses), float64(e.FlowRecomputes)))
	m.set("flownet.succession_ratio", "ratio", ratio(float64(e.FlowSuccessions), float64(e.FlowSuccessions+e.FlowRecomputes)))

	m.set("uvm.faults", "count", float64(faults))
	m.set("uvm.faulted_pages", "count", float64(faultedPages))
	m.set("uvm.tlb_hit_rate", "ratio", ratio(tlbSum, float64(runs)))
	m.set("uvm.tlb_epoch_shootdowns", "count", float64(e.TLBEpochShootdowns))

	m.set("ssd.host_write_gb", "GB", gib(int64(dev.HostWriteBytes)))
	m.set("ssd.nand_write_gb", "GB", gib(int64(dev.NANDWriteBytes)))
	m.set("ssd.write_amp", "ratio", ratio(float64(dev.NANDWriteBytes), float64(dev.HostWriteBytes)))
	m.set("ssd.gc_relocated", "count", float64(dev.GCRelocated))
	m.set("ssd.gc_runs", "count", float64(dev.GCRuns))
	m.set("ssd.erases", "count", float64(dev.Erases))

	var pre, off, rel, offBytes int64
	for _, s := range p.serves {
		pre += s.Preemptions
		off += s.Offloads
		rel += s.Reloads
		offBytes += int64(s.OffloadedBytes)
	}
	m.set("policy.kv_preemptions", "count", float64(pre))
	m.set("policy.kv_offloads", "count", float64(off))
	m.set("policy.kv_reloads", "count", float64(rel))
	m.set("policy.kv_offloaded_gb", "GB", gib(offBytes))
	return m
}

// fingerprint hashes every simulated output of a pass. Host-side counters
// (steps, engine work) are excluded: they describe the simulator, not the
// simulated system.
func fingerprint(p *pass) (string, error) {
	b, err := json.Marshal(struct {
		Clusters any
		Serves   any
	}{p.clusters, p.serves})
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
