package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
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

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"perturbSeeds":  func(s int64) any { return perturbSeeds(s, 5) },
		"fleetArrivals": func(s int64) any { return fleetArrivals(s, 128, units.Second) },
		"serveTrace":    func(s int64) any { return serveTrace(s, 500) },
		"train exec traces": func(s int64) any {
			w, err := newTrain(s)
			if err != nil {
				t.Fatal(err)
			}
			return w.(*train).exec
		},
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestGeneratedInputsInRange(t *testing.T) {
	gap := 100 * units.Millisecond
	for i, at := range fleetArrivals(3, 64, gap) {
		if lo := units.Time(i) * gap; at < lo || at >= lo+gap {
			t.Fatalf("job %d arrives at %v, outside its slot [%v, %v)", i, at, lo, lo+gap)
		}
	}
	var prev units.Time
	for i, rq := range serveTrace(3, 2000) {
		if rq.Arrival <= prev || rq.PromptTokens < serveMinTokens || rq.PromptTokens > servePromptMax ||
			rq.OutputTokens < serveMinTokens || rq.OutputTokens > serveOutMax {
			t.Fatalf("request %d out of range: %+v (previous arrival %v)", i, rq, prev)
		}
		prev = rq.Arrival
	}
}

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(ten, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("nearestRank sorted its input in place")
	}
	// 128 jobs: p90 is the 116th value, so twelve lie beyond it.
	var jobs []float64
	for i := 1; i <= 128; i++ {
		jobs = append(jobs, float64(i))
	}
	if got := nearestRank(jobs, 0.9); got != 116 {
		t.Errorf("p90 of 1..128 = %v, want 116", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
}

func TestProfileBuckets(t *testing.T) {
	for _, c := range []struct{ fn, pkg, bucket string }{
		{"g10sim/internal/flownet.(*Network).fill", "g10sim/internal/flownet", "flownet"},
		{"g10sim/internal/planner.New", "g10sim/internal/planner", "planner"},
		{"g10sim/internal/gpu.(*runner).step.func1", "g10sim/internal/gpu", "gpu"},
		{"g10sim/internal/uvm.(*TLB).Lookup", "g10sim/internal/uvm", "uvm"},
		{"g10sim/internal/ssd.(*Device).Write", "g10sim/internal/ssd", "ssd"},
		{"g10sim/internal/policy.(*g10).AtBoundary", "g10sim/internal/policy", "other"},
		{"g10sim/internal/flownet.(*heap[go.shape.struct { g10sim/internal/gpu.x int }]).Push", "g10sim/internal/flownet", "flownet"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"runtime/internal/syscall.Syscall6", "runtime/internal/syscall", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps", "runtime"},
		{"container/heap.Push", "container/heap", "other"},
		{"slices.SortFunc[go.shape.[]int,go.shape.int]", "slices", "other"},
		{"main.(*tracedPolicy).Program", "main", "other"},
		{"", "", "other"},
	} {
		pkg := pkgOf(c.fn)
		if pkg != c.pkg || bucketOf(pkg) != c.bucket {
			t.Errorf("%q: package %q bucket %q, want %q %q", c.fn, pkg, bucketOf(pkg), c.pkg, c.bucket)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestSelfTimeDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := selfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, n := range got {
		total += n
		if n < 0 || bucketOf(b) != b {
			t.Errorf("bucket %q holds %d samples", b, n)
		}
	}
	if total == 0 || got["other"]*2 < total {
		t.Errorf("samples %v: the spin loop (package main) should dominate", got)
	}
	if _, err := selfTime([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// smallFleet is the fleet workload cut to its first n jobs (the solo runs
// and the substrate stay as they are).
func smallFleet(t *testing.T, n int) *fleet {
	t.Helper()
	wl, err := newFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*fleet)
	w.models, w.arrivals = w.models[:n], w.arrivals[:n]
	return w
}

func TestCheckRejectsMutatedResults(t *testing.T) {
	fl := smallFleet(t, 6)
	fp, err := fl.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.check(fp); err != nil {
		t.Fatalf("unmutated fleet pass: %v", err)
	}
	clusterMutations := map[string]func(c *gpu.ClusterResult){
		"span reversed":        func(c *gpu.ClusterResult) { c.Spans[1].Finish = c.Spans[1].Arrival - 1 },
		"finish past makespan": func(c *gpu.ClusterResult) { c.Makespan = units.Duration(c.Spans[2].Finish) - 1 },
		"silent failure":       func(c *gpu.ClusterResult) { c.Tenants[0].Failed, c.Tenants[0].FailReason = true, "" },
		"faster than ideal":    func(c *gpu.ClusterResult) { c.Tenants[3].IterationTime = c.Tenants[3].IdealTime - 1 },
		"NAND below host":      func(c *gpu.ClusterResult) { c.SSDStats.NANDWriteBytes = c.SSDStats.HostWriteBytes - 1 },
	}
	for name, mutate := range clusterMutations {
		c := fp.clusters[0]
		c.Spans = append([]gpu.TenantSpan(nil), c.Spans...)
		c.Tenants = append([]gpu.Result(nil), c.Tenants...)
		mutate(&c)
		p := *fp
		p.clusters = append([]gpu.ClusterResult{c}, fp.clusters[1:]...)
		if fl.check(&p) == nil {
			t.Errorf("fleet %s: accepted", name)
		}
	}

	sv := &serve{reqs: serveTrace(1, 400)}
	sp, err := sv.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.check(sp); err != nil {
		t.Fatalf("unmutated serve pass: %v", err)
	}
	serveMutations := map[string]func(s *gpu.InferenceResult){
		"first token after finish": func(s *gpu.InferenceResult) { s.Requests[5].FirstToken = s.Requests[5].Finish + 1 },
		"first token before arrival": func(s *gpu.InferenceResult) {
			s.Requests[6].FirstToken = s.Requests[6].Arrival - 1
		},
		"unfinished":        func(s *gpu.InferenceResult) { s.Requests[7].Finish = 0 },
		"below ideal":       func(s *gpu.InferenceResult) { s.Requests[8].Finish = s.Requests[8].FirstToken },
		"KV total mismatch": func(s *gpu.InferenceResult) { s.Offloads++ },
		"request dropped":   func(s *gpu.InferenceResult) { s.Requests = s.Requests[1:] },
	}
	for name, mutate := range serveMutations {
		s := sp.serves[0]
		s.Requests = append([]gpu.RequestStat(nil), s.Requests...)
		mutate(&s)
		p := *sp
		p.serves = append([]gpu.InferenceResult{s}, sp.serves[1:]...)
		if sv.check(&p) == nil {
			t.Errorf("serve %s: accepted", name)
		}
	}
}

func TestTracingLeavesOutputsIdentical(t *testing.T) {
	tw, err := newTrain(3)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		w     workload
		plans int64
	}{
		"train": {tw, int64(len(trainModels))},
		"fleet": {smallFleet(t, 6), int64(6 + len(fleetModels))},
		"serve": {&serve{reqs: serveTrace(2, 400)}, 0},
	} {
		plain, err := c.w.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		traced, err := c.w.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := fingerprint(plain)
		b, _ := fingerprint(traced)
		if a != b {
			t.Errorf("%s: traced outputs differ from untraced", name)
		}
		if tr.planCalls != c.plans || (c.plans > 0 && tr.spent[layerPlanner] <= 0) {
			t.Errorf("%s: traced %d planner calls in %v, want %d", name, tr.planCalls, tr.spent[layerPlanner], c.plans)
		}
		if tr.spent[layerRun] < tr.spent[layerPlanner] {
			t.Errorf("%s: planner spans %v exceed the run spans %v they nest in", name, tr.spent[layerPlanner], tr.spent[layerRun])
		}
	}
}

// The wrapper must expose Replanner exactly when the wrapped policy does:
// the runner switches programs between iterations through it.
func TestTracedPolicyForwardsReplanner(t *testing.T) {
	tr := &tracer{}
	if _, ok := tr.wrap(policy.G10Full(planner.Config{})).(gpu.Replanner); ok {
		t.Error("static G10 gained a Replanner hook")
	}
	if pol := policy.BaseUVM(); tr.wrap(pol) != pol {
		t.Error("a policy without a program was wrapped")
	}
	spec, err := models.ByName("ResNet152")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(fleetBatch["ResNet152"])
	a := vitality.MustAnalyze(g, profile.Profile(g, profile.A100(spec.TimeScale)))
	cfg := sliceConfig(a)
	cfg.Iterations = 3
	runOne := func(pol gpu.Policy) gpu.ClusterResult {
		res, err := gpu.RunCluster(gpu.ClusterParams{
			Tenants: []gpu.ClusterTenant{{Analysis: a, Policy: pol, Config: cfg}, {Analysis: a, Policy: policy.G10Full(planner.Config{}), Config: cfg}},
			Shared:  cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrapped := tr.wrap(policy.G10Adaptive(planner.Config{}, adapt.Config{}))
	if _, ok := wrapped.(gpu.Replanner); !ok {
		t.Fatal("adaptive G10 lost its Replanner hook")
	}
	if got, want := runOne(wrapped), runOne(policy.G10Adaptive(planner.Config{}, adapt.Config{})); !reflect.DeepEqual(got, want) {
		t.Error("wrapped adaptive run differs from the unwrapped one")
	}
}
