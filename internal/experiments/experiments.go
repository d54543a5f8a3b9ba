// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 characterisation Figures 2–4, §7 Figures 11–19, and the
// §7.7 SSD-lifetime analysis) as printed series/rows, using the same models,
// policies, and system configuration as the paper.
//
// A Session caches graph analyses and run results so that figures sharing
// the same (model, batch, policy, config) runs — Figures 11–14 all consume
// one set — simulate each combination only once.
//
// Short mode shrinks batch sizes and scales the GPU capacity against each
// workload's footprint so the complete code path runs in seconds inside
// `go test`; full mode reproduces the paper's configuration.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"g10sim/internal/adapt"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/policy"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

// PolicyNames lists the evaluated designs in the paper's presentation order.
var PolicyNames = []string{"Base UVM", "FlashNeuron", "DeepUM+", "G10-GDS", "G10-Host", "G10"}

// NewPolicy constructs a policy by its paper name.
func NewPolicy(name string) (gpu.Policy, error) {
	switch name {
	case "Ideal":
		return policy.Ideal(), nil
	case "Base UVM":
		return policy.BaseUVM(), nil
	case "DeepUM+":
		return policy.DeepUMPlus(0), nil
	case "FlashNeuron":
		return policy.FlashNeuron(), nil
	case "G10-GDS":
		return policy.G10GDS(planner.Config{}), nil
	case "G10-Host":
		return policy.G10Host(planner.Config{}), nil
	case "G10":
		return policy.G10Full(planner.Config{}), nil
	case "G10-Adaptive":
		// The full system plus the online replanning layer (internal/
		// adapt). Not part of PolicyNames: the paper's figures compare the
		// static designs; the adaptive variant appears in the Adapt study.
		return policy.G10Adaptive(planner.Config{}, adapt.Config{}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// Options selects scope and output.
type Options struct {
	// Short shrinks workloads for fast test runs.
	Short bool
	// Models restricts the workload set (nil = all five).
	Models []string
	// W receives the printed tables; nil discards them.
	W io.Writer
	// Perf receives nondeterministic performance lines (host wall-clock
	// simulator throughput); nil discards them. Kept separate from W so
	// golden snapshots and differential runs stay byte-stable.
	Perf io.Writer
	// Workers bounds the simulation worker pool (0 = GOMAXPROCS, 1 =
	// serial). Results are identical at any setting: runs are pure and the
	// session cache is single-flight.
	Workers int
}

func (o Options) writer() io.Writer {
	if o.W == nil {
		return io.Discard
	}
	return o.W
}

func (o Options) perfWriter() io.Writer {
	if o.Perf == nil {
		return io.Discard
	}
	return o.Perf
}

func (o Options) modelSet() []string {
	if len(o.Models) > 0 {
		return o.Models
	}
	return []string{"BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154"}
}

// shortBatch maps each model to a small batch used in Short mode.
var shortBatch = map[string]int{
	"BERT": 16, "ViT": 32, "Inceptionv3": 32, "ResNet152": 32, "SENet154": 16,
}

// Session caches analyses and simulation results across figures. It is
// safe for concurrent use: figures fan their runs across a worker pool
// (prewarm) and the caches single-flight each key, so every (model, batch,
// policy, config) combination simulates exactly once and the results are
// identical to serial execution.
type Session struct {
	opt       Options
	mu        sync.Mutex
	analyses  map[string]*flight[*vitality.Analysis]
	results   map[string]*flight[gpu.Result]
	clusters  map[string]*flight[gpu.ClusterResult]
	inference map[string]*flight[inferenceCell]
	programs  map[programKey]*flight[*planner.Program]
	// engine accumulates engine-internal work counters over every cluster
	// the session actually ran (cache hits add nothing: the work happened
	// once). Guarded by mu.
	engine gpu.EngineStats
}

// NewSession builds a session.
func NewSession(opt Options) *Session {
	return &Session{
		opt:       opt,
		analyses:  make(map[string]*flight[*vitality.Analysis]),
		results:   make(map[string]*flight[gpu.Result]),
		clusters:  make(map[string]*flight[gpu.ClusterResult]),
		inference: make(map[string]*flight[inferenceCell]),
		programs:  make(map[programKey]*flight[*planner.Program]),
	}
}

// programKey identifies one planner run: the analysis (cached per
// model/batch, so pointer identity is stable within a session), the
// effective machine configuration the program was planned against, and the
// policy variant.
type programKey struct {
	a   *vitality.Analysis
	cfg gpu.Config
	pol string
}

// cachedProgramPolicy wraps a planning policy (a G10 variant) so its
// instrumented program is computed once per (analysis, config, policy)
// across the whole session. Within one cluster run the engine already plans
// each distinct job once (gpu.Machine.Plan); this cache spans runs, so
// identical jobs across figure cells, cluster configurations, and policy
// rows share the warm program (dropping it adds seconds of planning to this
// package's tests; DESIGN.md §16). The planner is deterministic, so the shared
// *planner.Program is bit-identical to a per-tenant build; it is read-only
// during simulation.
type cachedProgramPolicy struct {
	gpu.Policy
	s *Session
}

func (c *cachedProgramPolicy) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	pb := c.Policy.(gpu.ProgramBuilder)
	key := programKey{a: a, cfg: cfg, pol: c.Policy.Name()}
	s := c.s
	s.mu.Lock()
	f, ok := s.programs[key]
	if !ok {
		f = &flight[*planner.Program]{}
		s.programs[key] = f
	}
	s.mu.Unlock()
	p, _ := f.do(func() (*planner.Program, error) { return pb.Program(a, cfg), nil })
	return p
}

// cachedReplanPolicy additionally forwards the Replanner hook the wrapped
// adaptive policy implements (the per-tenant controller state stays with
// the wrapped instance; only the initial plan is shared).
type cachedReplanPolicy struct {
	cachedProgramPolicy
	rp gpu.Replanner
}

func (c *cachedReplanPolicy) NextProgram(iter int, sig gpu.LatenessSignal, cur *planner.Program) *planner.Program {
	return c.rp.NextProgram(iter, sig, cur)
}

// clusterPolicy builds a fresh per-tenant policy instance whose planner
// output is shared through the session's program cache.
func (s *Session) clusterPolicy(name string) (gpu.Policy, error) {
	pol, err := NewPolicy(name)
	if err != nil {
		return nil, err
	}
	if _, ok := pol.(gpu.ProgramBuilder); ok {
		cp := cachedProgramPolicy{Policy: pol, s: s}
		if rp, ok := pol.(gpu.Replanner); ok {
			return &cachedReplanPolicy{cachedProgramPolicy: cp, rp: rp}, nil
		}
		return &cp, nil
	}
	return pol, nil
}

// batchFor reports the evaluation batch size for a model under the
// session's scope.
func (s *Session) batchFor(spec models.Spec) int {
	if s.opt.Short {
		return shortBatch[spec.Name]
	}
	return spec.PaperBatch
}

// Analysis builds (or returns the cached) vitality analysis for one
// workload.
func (s *Session) Analysis(model string, batch int) (*vitality.Analysis, error) {
	key := fmt.Sprintf("%s/%d", model, batch)
	s.mu.Lock()
	f, ok := s.analyses[key]
	if !ok {
		f = &flight[*vitality.Analysis]{}
		s.analyses[key] = f
	}
	s.mu.Unlock()
	return f.do(func() (*vitality.Analysis, error) {
		spec, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		g := spec.Build(batch)
		tr := profile.Profile(g, profile.A100(spec.TimeScale))
		return vitality.Analyze(g, tr)
	})
}

// baseConfig is the Table 2 system, scaled down against the workload's
// memory demand in Short mode so that the same pressure dynamics appear.
func (s *Session) baseConfig(a *vitality.Analysis) gpu.Config {
	if s.opt.Short {
		return scaledConfig(a)
	}
	return gpu.Default()
}

// scaledConfig shrinks the Table 2 system against one workload's memory
// demand: GPU capacity a fixed fraction of the no-migration peak (but
// always fitting the largest working set), host memory a small multiple of
// that, and a smaller flash array. Short mode uses it for every figure;
// the fleet study uses it at any scope so a 64-tenant co-simulation stays
// tractable while showing the same pressure dynamics.
func scaledConfig(a *vitality.Analysis) gpu.Config {
	cfg := gpu.Default()
	cap := units.Bytes(float64(a.PeakAlive()) * 0.55)
	if min := a.PeakActive() + a.PeakActive()/4; cap < min {
		cap = min
	}
	cfg.GPUCapacity = cap
	cfg.HostCapacity = cap * 3
	ssdCfg := cfg.SSD
	ssdCfg.Capacity = 64 * units.GB
	ssdCfg.PageSize = 256 * units.KB
	cfg.SSD = ssdCfg
	return cfg
}

// Run simulates one (model, batch, policy, config) combination, caching by
// a caller-supplied config tag ("" for the base configuration).
func (s *Session) Run(model string, batch int, polName, cfgTag string, cfg gpu.Config, exec *profile.Trace) (gpu.Result, error) {
	key := fmt.Sprintf("%s/%d/%s/%s", model, batch, polName, cfgTag)
	run := func() (gpu.Result, error) {
		a, err := s.Analysis(model, batch)
		if err != nil {
			return gpu.Result{}, err
		}
		pol, err := NewPolicy(polName)
		if err != nil {
			return gpu.Result{}, err
		}
		if polName == "Ideal" {
			cfg = policy.IdealConfig(cfg)
		}
		res, err := gpu.Run(gpu.RunParams{Analysis: a, Policy: pol, Config: cfg, ExecTrace: exec})
		if err != nil {
			return gpu.Result{}, fmt.Errorf("experiments: %s: %w", key, err)
		}
		return res, nil
	}
	if exec != nil {
		// Perturbed-trace runs (Fig. 19) bypass the cache.
		return run()
	}
	s.mu.Lock()
	f, ok := s.results[key]
	if !ok {
		f = &flight[gpu.Result]{}
		s.results[key] = f
	}
	s.mu.Unlock()
	return f.do(run)
}

// RunCluster co-simulates a multi-tenant cluster, caching by key. build
// assembles the cluster parameters (fresh policy instances per call; only
// one call survives thanks to the single-flight cell), so concurrent
// prewarming is as deterministic as the serial pass.
func (s *Session) RunCluster(key string, build func() (gpu.ClusterParams, error)) (gpu.ClusterResult, error) {
	s.mu.Lock()
	f, ok := s.clusters[key]
	if !ok {
		f = &flight[gpu.ClusterResult]{}
		s.clusters[key] = f
	}
	s.mu.Unlock()
	return f.do(func() (gpu.ClusterResult, error) {
		p, err := build()
		if err != nil {
			return gpu.ClusterResult{}, err
		}
		var es gpu.EngineStats
		if p.Engine == nil {
			p.Engine = &es
		}
		res, err := gpu.RunCluster(p)
		if err != nil {
			return gpu.ClusterResult{}, fmt.Errorf("experiments: cluster %s: %w", key, err)
		}
		s.mu.Lock()
		s.engine.Add(es)
		s.mu.Unlock()
		return res, nil
	})
}

// inferenceCell is one cached serving simulation plus the host wall time
// its one real run took (cache hits reuse the measured time, so the perf
// line reflects the simulation, not the memoization).
type inferenceCell struct {
	res  gpu.InferenceResult
	wall time.Duration
}

// RunInference simulates a serving trace, caching by key and folding the
// engine counters into the session like RunCluster does.
func (s *Session) RunInference(key string, build func() (gpu.InferenceParams, error)) (gpu.InferenceResult, time.Duration, error) {
	s.mu.Lock()
	f, ok := s.inference[key]
	if !ok {
		f = &flight[inferenceCell]{}
		s.inference[key] = f
	}
	s.mu.Unlock()
	cell, err := f.do(func() (inferenceCell, error) {
		p, err := build()
		if err != nil {
			return inferenceCell{}, err
		}
		var es gpu.EngineStats
		if p.Engine == nil {
			p.Engine = &es
		}
		t0 := time.Now()
		res, err := gpu.RunInference(p)
		wall := time.Since(t0)
		if err != nil {
			return inferenceCell{}, fmt.Errorf("experiments: inference %s: %w", key, err)
		}
		s.mu.Lock()
		s.engine.Add(es)
		s.mu.Unlock()
		return inferenceCell{res: res, wall: wall}, nil
	})
	return cell.res, cell.wall, err
}

// EngineStats reports the engine-internal work counters accumulated over
// every cluster simulation the session ran (memoized re-reads add nothing).
func (s *Session) EngineStats() gpu.EngineStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// RunBase runs with the session's default (Table 2 or short-scaled) config.
func (s *Session) RunBase(model string, polName string) (gpu.Result, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return gpu.Result{}, err
	}
	batch := s.batchFor(spec)
	a, err := s.Analysis(model, batch)
	if err != nil {
		return gpu.Result{}, err
	}
	return s.Run(model, batch, polName, "", s.baseConfig(a), nil)
}

// percentile returns the q-quantile (0..1) of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
