package main

import (
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// workload is one set of generated inputs. run simulates one pass over them
// (tr is nil when untraced); check verifies a pass's invariants; sim reads
// its simulated end-to-end view.
type workload interface {
	run(tr *tracer) (*pass, error)
	check(p *pass) error
	sim(p *pass) simView
}

// workloads maps each --workload name to its set-up: seeded input
// generation plus the catalogue analyses the inputs are derived from.
var workloads = map[string]func(seed int64) (workload, error){
	"train": newTrain,
	"fleet": newFleet,
	"serve": newServe,
}

// pass is everything one pass simulated, in run order, plus the engine's
// work counters summed over those runs.
type pass struct {
	clusters []gpu.ClusterResult   // training co-simulations
	serves   []gpu.InferenceResult // serving simulations
	steps    int64
	engine   gpu.EngineStats
	tenants  int
}

func (p *pass) runCluster(tr *tracer, cp gpu.ClusterParams) (gpu.ClusterResult, error) {
	cp.StepCount, cp.Engine = &p.steps, &p.engine
	t0 := tr.begin()
	res, err := gpu.RunCluster(cp)
	tr.end(layerRun, t0)
	if err != nil {
		return res, err
	}
	p.clusters = append(p.clusters, res)
	p.tenants += len(cp.Tenants)
	return res, nil
}

func (p *pass) runInference(tr *tracer, ip gpu.InferenceParams) (gpu.InferenceResult, error) {
	ip.StepCount, ip.Engine = &p.steps, &p.engine
	t0 := tr.begin()
	res, err := gpu.RunInference(ip)
	tr.end(layerRun, t0)
	if err != nil {
		return res, err
	}
	p.serves = append(p.serves, res)
	p.tenants += len(ip.Requests)
	return res, nil
}

// newPolicy builds a fresh training policy instance (policies carry per-run
// state).
func newPolicy(name string) gpu.Policy {
	switch name {
	case "G10":
		return policy.G10Full(planner.Config{})
	case "DeepUM+":
		return policy.DeepUMPlus(0)
	case "Base UVM":
		return policy.BaseUVM()
	}
	panic("perfbench: unknown policy " + name)
}

// ---- train: the paper's headline comparison ----

var (
	trainModels   = []string{"BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154"}
	trainPolicies = []string{"G10", "DeepUM+", "Base UVM"}
)

// trainPerturb is the per-kernel profiling error (±5%, Fig. 19) applied to
// each replayed execution trace.
const trainPerturb = 0.05

type train struct {
	specs []models.Spec
	exec  []*profile.Trace // perturbed execution trace per model
}

func newTrain(seed int64) (workload, error) {
	seeds := perturbSeeds(seed, len(trainModels))
	w := &train{}
	for i, name := range trainModels {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := profile.Profile(spec.Build(0), profile.A100(spec.TimeScale))
		w.specs = append(w.specs, spec)
		w.exec = append(w.exec, tr.Perturb(trainPerturb, seeds[i]))
	}
	return w, nil
}

// run compiles each model at its paper batch (graph, profile, vitality) and
// simulates it on the Table-2 system under every train policy, each as a
// one-tenant cluster — the path g10sim.SimulateCluster takes for one job,
// which reproduces g10sim.Simulate exactly and reports the engine counters.
func (w *train) run(tr *tracer) (*pass, error) {
	p := &pass{}
	cfg := gpu.Default()
	for i, spec := range w.specs {
		t0 := tr.begin()
		g := spec.Build(0)
		prof := profile.Profile(g, profile.A100(spec.TimeScale))
		tr.end(layerModels, t0)
		t0 = tr.begin()
		a, err := vitality.Analyze(g, prof)
		tr.end(layerVitality, t0)
		if err != nil {
			return nil, err
		}
		for _, pol := range trainPolicies {
			_, err := p.runCluster(tr, gpu.ClusterParams{
				Tenants: []gpu.ClusterTenant{{Analysis: a, Policy: tr.wrap(newPolicy(pol)), Config: cfg, ExecTrace: w.exec[i]}},
				Shared:  cfg,
			})
			if err != nil {
				return nil, fmt.Errorf("train %s/%s: %w", spec.Name, pol, err)
			}
		}
	}
	return p, nil
}

func (w *train) check(p *pass) error { return check(p, nil) }

// sim lays the pass's runs back to back on one simulated clock: each run is
// a job arriving when the previous one finished, whose first result is its
// first (cold) iteration.
func (w *train) sim(p *pass) simView {
	var v simView
	var at float64
	iter := map[string]float64{} // model/policy → measured iteration seconds
	for _, c := range p.clusters {
		r := c.Tenants[0]
		span := c.Spans[0].Finish.Seconds()
		v.jobs = append(v.jobs, jobTimes{
			arrival: at, first: at + span - r.IterationTime.Seconds(), finish: at + span, failed: r.Failed,
		})
		at += span
		if r.Failed {
			continue
		}
		iter[r.Model+"/"+r.Policy] = r.IterationTime.Seconds()
		if r.Policy == "G10" {
			v.norm = append(v.norm, r.NormalizedPerf())
		}
	}
	for _, m := range trainModels {
		g10, deepum := iter[m+"/G10"], iter[m+"/DeepUM+"]
		if g10 > 0 && deepum > 0 {
			v.speedup = append(v.speedup, deepum/g10)
		}
	}
	return v
}

// ---- fleet: many short jobs on one shared array ----

var (
	fleetModels = []string{"BERT", "ResNet152", "Inceptionv3"}
	// fleetBatch is the fleet figure's short batch per catalogue model.
	fleetBatch = map[string]int{"BERT": 16, "ResNet152": 32, "Inceptionv3": 32}
)

const (
	fleetJobs = 128
	// fleetJobsPerDrive sizes the shared array at half the fleet figure's
	// drive count, so the FTL runs out of clean blocks and garbage-collects.
	fleetJobsPerDrive = 32
	// fleetGapDivisor sets the mean inter-arrival gap to the catalogue's
	// mean ideal job span over this divisor, so arrivals heavily overlap.
	fleetGapDivisor = 8
)

type fleet struct {
	analyses map[string]*vitality.Analysis
	models   []string     // per job
	arrivals []units.Time // per job
	shared   gpu.Config
}

func newFleet(seed int64) (workload, error) {
	w := &fleet{analyses: map[string]*vitality.Analysis{}}
	var meanIdeal units.Duration
	for _, m := range fleetModels {
		spec, err := models.ByName(m)
		if err != nil {
			return nil, err
		}
		g := spec.Build(fleetBatch[m])
		a, err := vitality.Analyze(g, profile.Profile(g, profile.A100(spec.TimeScale)))
		if err != nil {
			return nil, err
		}
		w.analyses[m] = a
		meanIdeal += a.Trace.Total() * units.Duration(gpu.Default().Iterations)
	}
	meanIdeal /= units.Duration(len(fleetModels))
	w.arrivals = fleetArrivals(seed, fleetJobs, meanIdeal/fleetGapDivisor)
	var hostSum units.Bytes
	for i := range w.arrivals {
		m := fleetModels[i%len(fleetModels)]
		w.models = append(w.models, m)
		hostSum += sliceConfig(w.analyses[m]).HostCapacity
	}
	// The substrate is sized like the fleet figure's: the host pool holds
	// twice the mean per-job host budget, and the array is the catalogue's
	// scaled flash device replicated once per fleetJobsPerDrive jobs.
	w.shared = sliceConfig(w.analyses[fleetModels[0]])
	w.shared.SSD = w.shared.SSD.Array(max(1, fleetJobs/fleetJobsPerDrive))
	w.shared.HostCapacity = 2 * hostSum / units.Bytes(fleetJobs)
	return w, nil
}

// sliceConfig is the fleet figure's dedicated slice for one job: GPU memory
// at 55% of the no-migration peak (never below 1.25× the largest working
// set), host memory at three times that, and a 64 GB flash device with
// 256 KB pages.
func sliceConfig(a *vitality.Analysis) gpu.Config {
	cfg := gpu.Default()
	c := units.Bytes(float64(a.PeakAlive()) * 0.55)
	c = max(c, a.PeakActive()+a.PeakActive()/4)
	cfg.GPUCapacity = c
	cfg.HostCapacity = 3 * c
	cfg.SSD.Capacity = 64 * units.GB
	cfg.SSD.PageSize = 256 * units.KB
	return cfg
}

// run co-simulates the whole fleet under G10 — every job with a fresh
// policy that plans for itself — then each catalogue model alone on its
// dedicated slice under G10 and DeepUM+ (the speedup reference).
func (w *fleet) run(tr *tracer) (*pass, error) {
	p := &pass{}
	cp := gpu.ClusterParams{Shared: w.shared}
	for i, m := range w.models {
		a := w.analyses[m]
		cp.Tenants = append(cp.Tenants, gpu.ClusterTenant{
			Analysis: a, Policy: tr.wrap(newPolicy("G10")), Config: sliceConfig(a), ArrivalTime: w.arrivals[i],
		})
	}
	if _, err := p.runCluster(tr, cp); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	for _, m := range fleetModels {
		a := w.analyses[m]
		cfg := sliceConfig(a)
		for _, pol := range []string{"G10", "DeepUM+"} {
			_, err := p.runCluster(tr, gpu.ClusterParams{
				Tenants: []gpu.ClusterTenant{{Analysis: a, Policy: tr.wrap(newPolicy(pol)), Config: cfg}},
				Shared:  cfg,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet solo %s/%s: %w", m, pol, err)
			}
		}
	}
	return p, nil
}

func (w *fleet) check(p *pass) error { return check(p, nil) }

// sim reads the fleet's jobs; a job's first result is its first finished
// iteration, and the speedup compares each model's dedicated-slice span
// under DeepUM+ and G10.
func (w *fleet) sim(p *pass) simView {
	var v simView
	fl := p.clusters[0]
	for i, r := range fl.Tenants {
		s := fl.Spans[i]
		v.jobs = append(v.jobs, jobTimes{
			arrival: s.Arrival.Seconds(), first: (s.Finish - r.IterationTime).Seconds(),
			finish: s.Finish.Seconds(), failed: r.Failed,
		})
		if !r.Failed {
			v.norm = append(v.norm, r.NormalizedPerf())
		}
	}
	for i := range fleetModels {
		g10, deepum := p.clusters[1+2*i], p.clusters[2+2*i]
		if !g10.Tenants[0].Failed && !deepum.Tenants[0].Failed {
			v.speedup = append(v.speedup, deepum.Spans[0].Duration().Seconds()/g10.Spans[0].Duration().Seconds())
		}
	}
	return v
}

// ---- serve: LLM inference with a tiered KV cache ----

const (
	serveRequests = 20_000
	serveOffload  = 0.8 // TieredKV's proactive-offload residency threshold
)

// serveCompute pins the serving compute model (the engine defaults) so the
// benchmark's lower bound on each request's latency uses the same numbers.
var serveCompute = gpu.InferenceParams{
	BlockTokens:     16,
	PrefillBase:     4 * units.Millisecond,
	PrefillPerToken: 120 * units.Microsecond,
	DecodeBase:      6 * units.Millisecond,
	DecodePerBlock:  40 * units.Microsecond,
}

type serve struct {
	reqs []gpu.RequestSpec
}

func newServe(seed int64) (workload, error) {
	return &serve{reqs: serveTrace(seed, serveRequests)}, nil
}

// run plays the trace under TieredKV on the default four servers, then
// under the single-tier preempt-and-recompute baseline (the speedup
// reference).
func (w *serve) run(tr *tracer) (*pass, error) {
	p := &pass{}
	for _, pol := range []gpu.KVPolicy{policy.TieredKV(serveOffload), policy.SingleTierKV()} {
		ip := serveCompute
		ip.Requests, ip.Policy = w.reqs, pol
		if _, err := p.runInference(tr, ip); err != nil {
			return nil, fmt.Errorf("serve %s: %w", pol.Name(), err)
		}
	}
	return p, nil
}

// idealLatency is a request's latency with no queueing, swapping or
// preemption: its prefill plus every decode step at the KV span that step
// needs.
func idealLatency(rq gpu.RequestSpec) units.Duration {
	c := serveCompute
	d := c.PrefillBase + units.Duration(rq.PromptTokens)*c.PrefillPerToken
	for t := 1; t <= rq.OutputTokens; t++ {
		blocks := (rq.PromptTokens + t + c.BlockTokens - 1) / c.BlockTokens
		d += c.DecodeBase + units.Duration(blocks)*c.DecodePerBlock
	}
	return d
}

func (w *serve) check(p *pass) error { return check(p, w.reqs) }

// sim reads the tiered run's requests; a request's first result is its
// first token, and the speedup compares each request's latency under the
// single-tier baseline and the tiered design.
func (w *serve) sim(p *pass) simView {
	var v simView
	tiered, single := p.serves[0], p.serves[1]
	for i, rq := range tiered.Requests {
		v.jobs = append(v.jobs, jobTimes{
			arrival: rq.Arrival.Seconds(), first: rq.FirstToken.Seconds(), finish: rq.Finish.Seconds(),
		})
		e2e := rq.Finish - rq.Arrival
		v.norm = append(v.norm, float64(idealLatency(w.reqs[i]))/float64(e2e))
		v.speedup = append(v.speedup, float64(single.Requests[i].Finish-single.Requests[i].Arrival)/float64(e2e))
	}
	return v
}
