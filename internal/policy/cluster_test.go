package policy

import (
	"reflect"
	"sync"
	"testing"

	"g10sim/internal/adapt"
	"g10sim/internal/gpu"
	"g10sim/internal/models"
	"g10sim/internal/planner"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/vitality"
)

func analyzeModel(t *testing.T, name string, batch int) *vitality.Analysis {
	t.Helper()
	spec, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(batch)
	a, err := vitality.Analyze(g, profile.Profile(g, profile.A100(spec.TimeScale)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// sliceConfig sizes one job's GPU the way the fleet study does: 55% of its
// no-migration peak, never below 1.25x its largest working set, with host
// memory at three times that and a 64 GB flash device.
func sliceConfig(a *vitality.Analysis) gpu.Config {
	cfg := gpu.Default()
	c := max(units.Bytes(float64(a.PeakAlive())*0.55), a.PeakActive()+a.PeakActive()/4)
	cfg.GPUCapacity = c
	cfg.HostCapacity = 3 * c
	cfg.SSD.Capacity = 64 * units.GB
	cfg.SSD.PageSize = 256 * units.KB
	return cfg
}

// ownPlanning wraps a planning G10 policy so that its program comes from a
// planner.New call of its own: the machine is hidden from the policy while
// the program is built, which takes Program's unattached path.
func ownPlanning(pol gpu.Policy) gpu.Policy {
	switch p := pol.(type) {
	case *adaptiveG10:
		return &ownReplanner{ownPlanner{Policy: p, g: &p.g10}}
	case *g10:
		return &ownPlanner{Policy: p, g: p}
	}
	panic("ownPlanning: not a planning G10 policy: " + pol.Name())
}

type ownPlanner struct {
	gpu.Policy
	g *g10
}

func (o *ownPlanner) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	m := o.g.m
	o.g.m = nil
	defer func() { o.g.m = m }()
	return o.g.Program(a, cfg)
}

type ownReplanner struct{ ownPlanner }

func (o *ownReplanner) NextProgram(iter int, sig gpu.LatenessSignal, cur *planner.Program) *planner.Program {
	return o.Policy.(gpu.Replanner).NextProgram(iter, sig, cur)
}

// TestClusterPlansOncePerDistinctJob pins the plan cache: tenants running
// the same analysis on the same effective planner config share one plan,
// the others get their own, and sharing changes no result byte against
// planning every tenant separately — for static G10 and for the adaptive
// variant, whose re-timed programs must copy, never mutate, the shared
// plan's program. Each leg runs the cluster several times: without a
// PlanCache every run plans for itself; runs handed one cache, in sequence
// or from concurrent goroutines, share one plan per distinct job.
func TestClusterPlansOncePerDistinctJob(t *testing.T) {
	bert := analyzeModel(t, "BERT", 4)
	resnet := analyzeModel(t, "ResNet152", 8)
	roomy := sliceConfig(resnet)
	roomy.GPUCapacity += roomy.GPUCapacity / 4
	jobs := []struct {
		a   *vitality.Analysis
		cfg gpu.Config
	}{
		{bert, sliceConfig(bert)}, {bert, sliceConfig(bert)}, {bert, sliceConfig(bert)},
		{resnet, sliceConfig(resnet)}, {resnet, sliceConfig(resnet)}, {resnet, roomy},
	}
	// group[i] names tenant i's distinct (analysis, config) planning problem.
	group := []int{0, 0, 0, 1, 1, 2}
	shared := sliceConfig(resnet)
	shared.HostCapacity = sliceConfig(bert).HostCapacity + shared.HostCapacity

	type outcome struct {
		res   gpu.ClusterResult
		plans []*planner.Plan
		err   error
	}
	run := func(pol func(i int) gpu.Policy, wrap func(gpu.Policy) gpu.Policy, cache *gpu.PlanCache) outcome {
		p := gpu.ClusterParams{Shared: shared, Plans: cache}
		var pols []gpu.Policy
		for i, j := range jobs {
			pols = append(pols, pol(i))
			p.Tenants = append(p.Tenants, gpu.ClusterTenant{
				Analysis: j.a, Policy: wrap(pols[i]), Config: j.cfg,
				ArrivalTime: units.Time(i) * units.Millisecond,
			})
		}
		res, err := gpu.RunCluster(p)
		plans := make([]*planner.Plan, len(pols))
		for i, pol := range pols {
			plans[i] = pol.(Planner).Plan()
		}
		return outcome{res, plans, err}
	}
	check := func(t *testing.T, o outcome) {
		t.Helper()
		if o.err != nil {
			t.Fatal(o.err)
		}
		for i, pl := range o.plans {
			if pl == nil || len(pl.Decisions) == 0 {
				t.Fatalf("tenant %d planned no migrations", i)
			}
			if o.res.Tenants[i].Failed {
				t.Fatalf("tenant %d failed: %s", i, o.res.Tenants[i].FailReason)
			}
		}
	}
	same := func(p gpu.Policy) gpu.Policy { return p }
	for _, pc := range []struct {
		name string
		pol  func(i int) gpu.Policy
	}{
		{"static", func(int) gpu.Policy { return G10Full(planner.Config{}) }},
		// Each adaptive tenant clamps its re-timing differently, so tenants
		// sharing a plan replay different programs from it.
		{"adaptive", func(i int) gpu.Policy {
			return G10Adaptive(planner.Config{}, adapt.Config{MaxInflation: float64(2 + i)})
		}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			// The reference: every tenant planning alone.
			want := run(pc.pol, ownPlanning, nil)
			check(t, want)
			for i := range want.plans {
				for j := range i {
					if want.plans[i] == want.plans[j] {
						t.Errorf("per-tenant planning: tenants %d and %d share a plan", i, j)
					}
				}
			}
			for _, leg := range []struct {
				name string
				// runs clusters are simulated; with shared set they all plan
				// through one PlanCache, from concurrent goroutines if
				// concurrent.
				runs               int
				shared, concurrent bool
			}{
				{"per-run", 2, false, false},
				{"shared-cache", 2, true, false},
				{"concurrent", 3, true, true},
			} {
				t.Run(leg.name, func(t *testing.T) {
					var cache *gpu.PlanCache
					if leg.shared {
						cache = new(gpu.PlanCache)
					}
					got := make([]outcome, leg.runs)
					var wg sync.WaitGroup
					for r := range got {
						if !leg.concurrent {
							got[r] = run(pc.pol, same, cache)
							continue
						}
						wg.Add(1)
						go func() {
							defer wg.Done()
							got[r] = run(pc.pol, same, cache)
						}()
					}
					wg.Wait()
					for r, o := range got {
						check(t, o)
						// Tenants share a plan iff they run the same job, and
						// across runs only through a shared cache.
						for i := range o.plans {
							for j := range got[0].plans {
								shared := o.plans[i] == got[0].plans[j]
								if want := group[i] == group[j] && (r == 0 || leg.shared); shared != want {
									t.Errorf("run %d tenant %d and run 0 tenant %d: shared plan = %v, want %v", r, i, j, shared, want)
								}
							}
						}
						if !reflect.DeepEqual(o.res, want.res) {
							t.Errorf("run %d: shared plans changed the cluster result against per-tenant planning", r)
						}
					}
				})
			}
		})
	}
}
