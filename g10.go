// Package g10sim is a from-scratch reproduction of G10 (Zhang et al.,
// MICRO 2023): a unified GPU memory and storage architecture that scales
// GPU memory with flash while hiding migration latency behind compiler-
// planned smart tensor migrations.
//
// The package exposes the end-to-end pipeline the paper describes:
//
//	workload, _ := g10sim.BuildModel("BERT", 256)      // dataflow graph + profiled trace
//	report, _ := g10sim.Simulate(workload, "G10", g10sim.DefaultConfig())
//	fmt.Printf("%.1f%% of ideal\n", 100*report.NormalizedPerf)
//
// Under the hood this runs tensor vitality analysis (§4.2), the smart
// migration scheduler (§4.3–4.4, Algorithm 1), and an event-driven
// execution simulation over a PCIe/SSD/host bandwidth model, a flash FTL
// with garbage collection, and an extended-UVM page table. Custom models
// can be supplied through NewGraphBuilder.
package g10sim

import (
	"fmt"
	"math"
	"sort"

	"g10sim/internal/adapt"
	"g10sim/internal/dnn"
	"g10sim/internal/experiments"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/policy"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// Policies lists the migration policies available to Simulate, in the
// paper's presentation order, plus "Ideal".
func Policies() []string {
	return append([]string{"Ideal"}, experiments.PolicyNames...)
}

// Models lists the built-in workloads of the paper's Table 1.
func Models() []string { return models.Names() }

// Config is the simulated system configuration (Table 2 defaults).
type Config struct {
	GPUMemoryGB       float64 // on-board HBM capacity (default 40)
	HostMemoryGB      float64 // host DRAM available for migrations (default 128)
	PCIeBandwidthGBps float64 // per-direction GPU link bandwidth (default 15.754)
	SSDReadGBps       float64 // sustained flash read bandwidth (default 3.2)
	SSDWriteGBps      float64 // sustained flash write bandwidth (default 3.0)
	SSDCapacityGB     float64 // flash capacity (default 3200)
	Iterations        int     // training iterations; the last is measured (default 2)

	// Adaptive attaches the online replanning layer to the G10 policies:
	// each iteration the runtime folds the observed migration lateness
	// (realized vs exclusive-bandwidth transfer times) into an EMA and
	// re-times the next iteration's pre-eviction/prefetch instructions —
	// earlier prefetch issue under contention, deferred eviction when the
	// device is idle. Reactive policies are unaffected, and an uncontended
	// adaptive run is bit-identical to the static plan.
	Adaptive bool
}

// DefaultConfig returns the paper's Table 2 testbed.
func DefaultConfig() Config {
	return Config{
		GPUMemoryGB:       40,
		HostMemoryGB:      128,
		PCIeBandwidthGBps: 15.754,
		SSDReadGBps:       3.2,
		SSDWriteGBps:      3.0,
		SSDCapacityGB:     3200,
		Iterations:        2,
	}
}

// validate rejects a configuration no system can have: a NaN, infinite or
// negative size or bandwidth, or a negative iteration count. Zero keeps
// meaning "default" where the field's doc says so.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"GPUMemoryGB", c.GPUMemoryGB},
		{"HostMemoryGB", c.HostMemoryGB},
		{"PCIeBandwidthGBps", c.PCIeBandwidthGBps},
		{"SSDReadGBps", c.SSDReadGBps},
		{"SSDWriteGBps", c.SSDWriteGBps},
		{"SSDCapacityGB", c.SSDCapacityGB},
	} {
		if !validFloat(f.v) {
			return floatError(f.name, f.v)
		}
	}
	if c.Iterations < 0 {
		return fmt.Errorf("g10sim: Iterations %d must not be negative", c.Iterations)
	}
	return nil
}

// validFloat reports whether v is finite and not negative (NaN is not).
func validFloat(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// floatError describes a field value validFloat rejects.
func floatError(field string, v float64) error {
	return fmt.Errorf("g10sim: %s %v must be finite and non-negative", field, v)
}

func (c Config) toInternal() gpu.Config {
	cfg := gpu.Default()
	if c.GPUMemoryGB > 0 {
		cfg.GPUCapacity = units.Bytes(c.GPUMemoryGB * float64(units.GB))
	}
	cfg.HostCapacity = units.Bytes(c.HostMemoryGB * float64(units.GB))
	if c.PCIeBandwidthGBps > 0 {
		cfg.PCIeBandwidth = units.GBps(c.PCIeBandwidthGBps)
	}
	if c.SSDReadGBps > 0 {
		cfg.SSD.ReadBandwidth = units.GBps(c.SSDReadGBps)
	}
	if c.SSDWriteGBps > 0 {
		cfg.SSD.WriteBandwidth = units.GBps(c.SSDWriteGBps)
	}
	if c.SSDCapacityGB > 0 {
		cfg.SSD.Capacity = units.Bytes(c.SSDCapacityGB * float64(units.GB))
	}
	if c.Iterations > 0 {
		cfg.Iterations = c.Iterations
	}
	return cfg
}

// Workload is an analyzed training iteration: the dataflow graph, its
// profiled kernel trace, and the tensor vitality analysis.
type Workload struct {
	analysis *vitality.Analysis
}

// BuildModel constructs a built-in workload at the given batch size
// (batch <= 0 selects the paper's evaluation batch).
func BuildModel(name string, batch int) (*Workload, error) {
	spec, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	g := spec.Build(batch)
	tr := profile.Profile(g, profile.A100(spec.TimeScale))
	a, err := vitality.Analyze(g, tr)
	if err != nil {
		return nil, err
	}
	return &Workload{analysis: a}, nil
}

// Summary reports headline workload statistics.
type Summary struct {
	Model           string
	Batch           int
	Kernels         int
	Tensors         int
	FootprintGB     float64 // total tensor bytes (the paper's M)
	PeakAliveGB     float64 // peak no-migration memory pressure
	MaxWorkingSetGB float64 // largest single-kernel working set
	IdealSeconds    float64 // stall-free iteration time
	InactivePeriods int
}

// Summary computes workload statistics.
func (w *Workload) Summary() Summary {
	g := w.analysis.Graph
	return Summary{
		Model:           g.Name,
		Batch:           g.Batch,
		Kernels:         len(g.Kernels),
		Tensors:         len(g.Tensors),
		FootprintGB:     g.Footprint().GiB(),
		PeakAliveGB:     w.analysis.PeakAlive().GiB(),
		MaxWorkingSetGB: g.MaxWorkingSet().GiB(),
		IdealSeconds:    w.analysis.Trace.Total().Seconds(),
		InactivePeriods: len(w.analysis.Periods),
	}
}

// Report is the outcome of one simulated run.
type Report struct {
	Model  string
	Batch  int
	Policy string

	IterationSeconds float64
	IdealSeconds     float64
	NormalizedPerf   float64 // ideal/iteration (1.0 = ideal)
	Throughput       float64 // examples per second
	StallSeconds     float64

	GPUToSSDGB  float64
	SSDToGPUGB  float64
	GPUToHostGB float64
	HostToGPUGB float64

	Faults             int64
	WriteAmplification float64
	SSDLifetimeYears   float64 // at the measured flash write rate

	Failed     bool
	FailReason string

	// Fault-injection accounting (cluster runs with ClusterConfig.Faults):
	// crash recoveries, simulated progress lost to them, and the durable
	// checkpoint traffic the job's recovery policy wrote to flash.
	Restarts         int
	WastedSeconds    float64
	CheckpointGB     float64
	CheckpointWrites int
}

// Simulate runs the workload under the named policy.
func Simulate(w *Workload, policyName string, cfg Config) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	pol, err := newPolicy(policyName, cfg.Adaptive)
	if err != nil {
		return Report{}, err
	}
	icfg := tenantConfig(cfg.toInternal(), policyName)
	res, err := gpu.Run(gpu.RunParams{Analysis: w.analysis, Policy: pol, Config: icfg})
	if err != nil {
		return Report{}, err
	}
	return reportFrom(res, icfg), nil
}

// tenantConfig applies per-policy config overrides: the Ideal bound runs
// with effectively infinite GPU memory (one definition, in internal/policy).
func tenantConfig(icfg gpu.Config, policyName string) gpu.Config {
	if policyName == "Ideal" {
		icfg = policy.IdealConfig(icfg)
	}
	return icfg
}

// newPolicy constructs the named policy, attaching the online replanning
// controller when adaptive is set (planning G10 variants only; the
// reactive baselines have no instrumented program to re-time).
func newPolicy(policyName string, adaptive bool) (gpu.Policy, error) {
	pol, err := experiments.NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	if adaptive {
		pol = policy.Adaptive(pol, adapt.Config{})
	}
	return pol, nil
}

// reportFrom converts an internal result to the public report.
func reportFrom(res gpu.Result, icfg gpu.Config) Report {
	var rate units.Bandwidth
	if res.IterationTime > 0 {
		rate = units.Bandwidth(float64(res.GPUToSSD) / res.IterationTime.Seconds())
	}
	return Report{
		Model:              res.Model,
		Batch:              res.Batch,
		Policy:             res.Policy,
		IterationSeconds:   res.IterationTime.Seconds(),
		IdealSeconds:       res.IdealTime.Seconds(),
		NormalizedPerf:     res.NormalizedPerf(),
		Throughput:         res.Throughput(),
		StallSeconds:       res.StallTime.Seconds(),
		GPUToSSDGB:         res.GPUToSSD.GiB(),
		SSDToGPUGB:         res.SSDToGPU.GiB(),
		GPUToHostGB:        res.GPUToHost.GiB(),
		HostToGPUGB:        res.HostToGPU.GiB(),
		Faults:             res.Faults,
		WriteAmplification: res.WriteAmp,
		SSDLifetimeYears:   icfg.SSD.LifetimeYears(rate),
		Failed:             res.Failed,
		FailReason:         res.FailReason,
		Restarts:           res.Restarts,
		WastedSeconds:      res.WastedTime.Seconds(),
		CheckpointGB:       res.CheckpointBytes.GiB(),
		CheckpointWrites:   res.CheckpointWrites,
	}
}

// ClusterJob is one tenant of a shared-device co-simulation: a workload
// plus the policy driving its migrations.
type ClusterJob struct {
	Workload *Workload
	Policy   string
	// ArrivalSeconds admits the job mid-simulation: it joins the shared
	// substrate when the cluster clock reaches this value (0 = present
	// from the start), seeding its weights into whatever host and flash
	// space the already-running jobs have left.
	ArrivalSeconds float64
	// Recovery selects how the job resumes after an injected server crash:
	// "restart" (or empty — lose all progress) or "checkpoint" (periodic
	// flash snapshots; resume from the last completed one). Only meaningful
	// when ClusterConfig.Faults schedules crashes.
	Recovery string
}

// ClusterConfig sizes a co-simulation. The embedded Config's per-GPU fields
// (GPU memory, PCIe bandwidth, iterations) apply to every tenant; its SSD
// and host-memory fields describe the single array and host pool all
// tenants share.
type ClusterConfig struct {
	Config
	// SSDs is the number of drives in the shared array (default 1); the
	// array's bandwidth and capacity scale linearly with it.
	SSDs int
	// Faults injects a deterministic fault schedule — server crashes, PCIe
	// link degradation windows, flash die failures. nil injects nothing.
	Faults *FaultPlan
	// CheckpointEvery fixes the snapshot cadence (iterations) for jobs with
	// Recovery "checkpoint"; 0 derives the Young/Daly optimum from the
	// schedule's MTBF.
	CheckpointEvery int
}

// validate rejects a cluster no array can have: an invalid Config, or a
// negative drive count or checkpoint cadence (zero keeps its default).
func (c ClusterConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if c.SSDs < 0 {
		return fmt.Errorf("g10sim: SSDs %d must not be negative", c.SSDs)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("g10sim: CheckpointEvery %d must not be negative", c.CheckpointEvery)
	}
	return nil
}

// ServerCrash kills one job's server AtSeconds into the run. RepairSeconds
// later the server is rebuilt and the job re-admitted (from scratch or its
// last checkpoint, per ClusterJob.Recovery); Permanent crashes never repair
// and the job fails.
type ServerCrash struct {
	Job           int
	AtSeconds     float64
	RepairSeconds float64
	Permanent     bool
}

// LinkDegrade multiplies one job's PCIe bandwidth by Factor over
// [FromSeconds, UntilSeconds) — a flaky or contended link.
type LinkDegrade struct {
	Job          int
	FromSeconds  float64
	UntilSeconds float64
	Factor       float64
}

// DieFailure removes Dies flash dies from the shared array AtSeconds into
// the run, shrinking its effective bandwidth and remaining capacity.
type DieFailure struct {
	AtSeconds float64
	Dies      int
}

// FaultPlan is a deterministic fault schedule for one cluster run.
type FaultPlan struct {
	Crashes  []ServerCrash
	Degrades []LinkDegrade
	DieFails []DieFailure
}

// toInternal converts the seconds-based public plan to simulator time.
func (p *FaultPlan) toInternal() *gpu.FaultPlan {
	if p == nil {
		return nil
	}
	sec := float64(units.Second)
	out := &gpu.FaultPlan{}
	for _, c := range p.Crashes {
		repair := units.Duration(c.RepairSeconds * sec)
		if c.Permanent {
			repair = -1
		}
		out.Crashes = append(out.Crashes, gpu.CrashFault{
			Tenant: c.Job, At: units.Time(c.AtSeconds * sec), RepairAfter: repair,
		})
	}
	for _, d := range p.Degrades {
		out.Degrades = append(out.Degrades, gpu.LinkDegrade{
			Tenant: d.Job, From: units.Time(d.FromSeconds * sec),
			Until: units.Time(d.UntilSeconds * sec), Factor: d.Factor,
		})
	}
	for _, f := range p.DieFails {
		out.DieFails = append(out.DieFails, gpu.DieFail{At: units.Time(f.AtSeconds * sec), Dies: f.Dies})
	}
	return out
}

// JobSpan is one job's admission and completion times on the cluster
// clock.
type JobSpan struct {
	ArrivalSeconds float64
	FinishSeconds  float64
}

// ClusterReport is the outcome of one co-simulation.
type ClusterReport struct {
	// Jobs holds each tenant's report in input order. A job's SSD traffic
	// and write amplification are its attributed share of the shared array.
	Jobs []Report
	// Spans holds each job's arrival and finish times in input order.
	Spans []JobSpan

	// MakespanSeconds is when the last job finished.
	MakespanSeconds float64
	// AggregateThroughput sums the jobs' examples/second.
	AggregateThroughput float64
	// ArrayWriteGB is the total host-write volume the shared array
	// absorbed; ArrayWriteAmplification its array-level WA.
	ArrayWriteGB            float64
	ArrayWriteAmplification float64
}

// SimulateCluster co-simulates every job on one shared flash array, host
// memory pool, and clock — true shared-device contention, unlike a static
// bandwidth split. A one-job cluster reproduces Simulate exactly.
func SimulateCluster(jobs []ClusterJob, ccfg ClusterConfig) (ClusterReport, error) {
	if len(jobs) == 0 {
		return ClusterReport{}, fmt.Errorf("g10sim: cluster with no jobs")
	}
	if err := ccfg.validate(); err != nil {
		return ClusterReport{}, err
	}
	shared := ccfg.Config.toInternal()
	shared.SSD = shared.SSD.Array(ccfg.SSDs)
	tenants := make([]gpu.ClusterTenant, len(jobs))
	for i, j := range jobs {
		if j.Workload == nil {
			return ClusterReport{}, fmt.Errorf("g10sim: job %d has no workload", i)
		}
		if !validFloat(j.ArrivalSeconds) {
			return ClusterReport{}, floatError(fmt.Sprintf("job %d ArrivalSeconds", i), j.ArrivalSeconds)
		}
		pol, err := newPolicy(j.Policy, ccfg.Adaptive)
		if err != nil {
			return ClusterReport{}, err
		}
		var rec gpu.Recovery
		switch j.Recovery {
		case "", "restart":
			rec = policy.Restart()
		case "checkpoint":
			rec = policy.Checkpoint(ccfg.CheckpointEvery)
		default:
			return ClusterReport{}, fmt.Errorf("g10sim: job %d: unknown recovery %q", i, j.Recovery)
		}
		tenants[i] = gpu.ClusterTenant{
			Analysis:    j.Workload.analysis,
			Policy:      pol,
			Config:      tenantConfig(shared, j.Policy),
			Tag:         fmt.Sprintf("gpu%d", i),
			ArrivalTime: units.Time(j.ArrivalSeconds * float64(units.Second)),
			Recovery:    rec,
		}
	}
	cres, err := gpu.RunCluster(gpu.ClusterParams{
		Tenants: tenants, Shared: shared, Faults: ccfg.Faults.toInternal(),
	})
	if err != nil {
		return ClusterReport{}, err
	}
	out := ClusterReport{
		Jobs:                    make([]Report, len(cres.Tenants)),
		Spans:                   make([]JobSpan, len(cres.Tenants)),
		MakespanSeconds:         cres.Makespan.Seconds(),
		ArrayWriteGB:            cres.SSDStats.HostWriteBytes.GiB(),
		ArrayWriteAmplification: cres.WriteAmp,
	}
	for i, res := range cres.Tenants {
		out.Jobs[i] = reportFrom(res, shared)
		out.Spans[i] = JobSpan{
			ArrivalSeconds: cres.Spans[i].Arrival.Seconds(),
			FinishSeconds:  cres.Spans[i].Finish.Seconds(),
		}
		out.AggregateThroughput += out.Jobs[i].Throughput
	}
	return out, nil
}

// InferenceRequest is one request of an LLM serving trace.
type InferenceRequest struct {
	// ArrivalSeconds admits the request mid-simulation (0 = present at
	// start).
	ArrivalSeconds float64
	// PromptTokens is the prefill length; OutputTokens the decode length.
	PromptTokens int
	OutputTokens int
}

// InferenceConfig sizes the serving cluster. Zero values take the engine
// defaults (four servers, 2048-block GPU KV pools, 512-block host tier,
// 16-token 2 MiB blocks).
type InferenceConfig struct {
	Servers     int
	GPUBlocks   int // per-server KV block pool
	HostBlocks  int // shared host DRAM tier capacity, in blocks
	BlockTokens int
	BlockMB     float64

	// Tiered swaps memory-pressure victims' KV to the host DRAM tier and
	// reloads on demand, instead of vLLM-style preempt-and-recompute;
	// OffloadThreshold is the GPU residency fraction above which cold KV
	// offloads proactively while admissions queue (default 0.8).
	Tiered           bool
	OffloadThreshold float64
}

// InferenceRequestStat is one request's simulated timeline.
type InferenceRequestStat struct {
	ArrivalSeconds    float64
	FirstTokenSeconds float64 // prefill completion (TTFT deadline)
	FinishSeconds     float64
	Server            int
	Preempts          int
	Offloads          int
	Reloads           int
}

// InferenceReport is the outcome of one serving simulation.
type InferenceReport struct {
	Policy   string
	Requests []InferenceRequestStat

	// TTFT is arrival to first token; E2E arrival to finish (seconds,
	// nearest-rank percentiles over the trace).
	TTFTp50 float64
	TTFTp99 float64
	E2Ep50  float64
	E2Ep99  float64

	Preemptions     int64
	Offloads        int64
	Reloads         int64
	OffloadedGB     float64
	MakespanSeconds float64
}

// SimulateInference plays a request trace against the serving engine:
// per-request KV caches grow block by block as tokens decode, and memory
// pressure resolves by preemption (single-tier) or by swapping cold KV over
// the tier edge to host DRAM (Tiered).
func SimulateInference(reqs []InferenceRequest, cfg InferenceConfig) (InferenceReport, error) {
	if !validFloat(cfg.BlockMB) {
		return InferenceReport{}, floatError("BlockMB", cfg.BlockMB)
	}
	if !validFloat(cfg.OffloadThreshold) {
		return InferenceReport{}, floatError("OffloadThreshold", cfg.OffloadThreshold)
	}
	specs := make([]gpu.RequestSpec, len(reqs))
	for i, rq := range reqs {
		if !validFloat(rq.ArrivalSeconds) {
			return InferenceReport{}, floatError(fmt.Sprintf("request %d ArrivalSeconds", i), rq.ArrivalSeconds)
		}
		specs[i] = gpu.RequestSpec{
			Arrival:      units.Time(rq.ArrivalSeconds * float64(units.Second)),
			PromptTokens: rq.PromptTokens,
			OutputTokens: rq.OutputTokens,
		}
	}
	pol := policy.SingleTierKV()
	if cfg.Tiered {
		pol = policy.TieredKV(cfg.OffloadThreshold)
	}
	res, err := gpu.RunInference(gpu.InferenceParams{
		Requests:    specs,
		Policy:      pol,
		Servers:     cfg.Servers,
		GPUBlocks:   cfg.GPUBlocks,
		HostBlocks:  cfg.HostBlocks,
		BlockTokens: cfg.BlockTokens,
		BlockBytes:  units.Bytes(cfg.BlockMB * float64(units.MB)),
	})
	if err != nil {
		return InferenceReport{}, err
	}
	out := InferenceReport{
		Policy:          pol.Name(),
		Requests:        make([]InferenceRequestStat, len(res.Requests)),
		Preemptions:     res.Preemptions,
		Offloads:        res.Offloads,
		Reloads:         res.Reloads,
		OffloadedGB:     res.OffloadedBytes.GiB(),
		MakespanSeconds: res.Makespan.Seconds(),
	}
	ttft := make([]float64, len(res.Requests))
	e2e := make([]float64, len(res.Requests))
	for i, rq := range res.Requests {
		out.Requests[i] = InferenceRequestStat{
			ArrivalSeconds:    rq.Arrival.Seconds(),
			FirstTokenSeconds: rq.FirstToken.Seconds(),
			FinishSeconds:     rq.Finish.Seconds(),
			Server:            rq.Server,
			Preempts:          rq.Preempts,
			Offloads:          rq.Offloads,
			Reloads:           rq.Reloads,
		}
		ttft[i] = units.Duration(rq.FirstToken - rq.Arrival).Seconds()
		e2e[i] = units.Duration(rq.Finish - rq.Arrival).Seconds()
	}
	sort.Float64s(ttft)
	sort.Float64s(e2e)
	out.TTFTp50, out.TTFTp99 = quantile(ttft, 0.50), quantile(ttft, 0.99)
	out.E2Ep50, out.E2Ep99 = quantile(e2e, 0.50), quantile(e2e, 0.99)
	return out, nil
}

// quantile reads the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// TensorKind classifies custom-model tensors (see NewGraphBuilder).
type TensorKind int

// Tensor kinds for custom graphs.
const (
	Weight       TensorKind = TensorKind(dnn.Global)       // lives across iterations
	Intermediate TensorKind = TensorKind(dnn.Intermediate) // activations/gradients
	Workspace    TensorKind = TensorKind(dnn.Workspace)    // single-kernel scratch
)

// Phase tags kernels of custom graphs.
type Phase int

// Kernel phases.
const (
	Forward  Phase = Phase(dnn.Forward)
	Backward Phase = Phase(dnn.Backward)
)

// TensorID names a tensor within a GraphBuilder.
type TensorID int

// GraphBuilder assembles a custom training-iteration graph for simulation
// through the same pipeline as the built-in models.
type GraphBuilder struct {
	b       *dnn.Builder
	tensors []*dnn.Tensor
}

// NewGraphBuilder starts a custom model.
func NewGraphBuilder(name string, batch int) *GraphBuilder {
	return &GraphBuilder{b: dnn.NewBuilder(name, batch)}
}

// Tensor declares a tensor of the given size in bytes.
func (gb *GraphBuilder) Tensor(name string, kind TensorKind, sizeBytes int64) TensorID {
	t := gb.b.Tensor(name, dnn.TensorKind(kind), units.Bytes(sizeBytes))
	gb.tensors = append(gb.tensors, t)
	return TensorID(t.ID)
}

// Kernel appends a kernel in execution order.
func (gb *GraphBuilder) Kernel(name string, phase Phase, flops float64, inputs, outputs []TensorID) {
	gb.b.Kernel(name, dnn.Phase(phase), flops, gb.resolve(inputs), gb.resolve(outputs))
}

func (gb *GraphBuilder) resolve(ids []TensorID) []*dnn.Tensor {
	out := make([]*dnn.Tensor, len(ids))
	for i, id := range ids {
		out[i] = gb.tensors[id]
	}
	return out
}

// Workload profiles the custom graph (on the calibrated A100 timing model
// scaled by timeScale; 1.0 = raw roofline) and analyzes tensor vitality.
func (gb *GraphBuilder) Workload(timeScale float64) (*Workload, error) {
	g, err := gb.b.Build()
	if err != nil {
		return nil, err
	}
	tr := profile.Profile(g, profile.A100(timeScale))
	a, err := vitality.Analyze(g, tr)
	if err != nil {
		return nil, err
	}
	return &Workload{analysis: a}, nil
}

// String renders a compact report line.
func (r Report) String() string {
	if r.Failed {
		return fmt.Sprintf("%s/%d %s: FAILED (%s)", r.Model, r.Batch, r.Policy, r.FailReason)
	}
	return fmt.Sprintf("%s/%d %s: %.3fs (%.1f%% of ideal, %.1f ex/s)",
		r.Model, r.Batch, r.Policy, r.IterationSeconds, 100*r.NormalizedPerf, r.Throughput)
}
