package g10sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// smallConfig shrinks the system for fast facade tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.GPUMemoryGB = 2
	cfg.HostMemoryGB = 8
	cfg.SSDCapacityGB = 64
	return cfg
}

func TestFacadePipeline(t *testing.T) {
	w, err := BuildModel("BERT", 16)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.Model != "BERT" || s.Batch != 16 || s.Kernels == 0 || s.FootprintGB <= 0 {
		t.Fatalf("summary = %+v", s)
	}
	rep, err := Simulate(w, "G10", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("G10 failed: %s", rep.FailReason)
	}
	if rep.NormalizedPerf <= 0 || rep.NormalizedPerf > 1.0001 {
		t.Errorf("normalized perf %v", rep.NormalizedPerf)
	}
	if !strings.Contains(rep.String(), "G10") {
		t.Error("report string missing policy")
	}
}

func TestFacadeIdealBeatsBase(t *testing.T) {
	w, err := BuildModel("ResNet152", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	ideal, err := Simulate(w, "Ideal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(w, "Base UVM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.IterationSeconds > base.IterationSeconds {
		t.Errorf("ideal (%v) slower than Base UVM (%v)", ideal.IterationSeconds, base.IterationSeconds)
	}
	if ideal.NormalizedPerf != 1 {
		t.Errorf("ideal normalized = %v", ideal.NormalizedPerf)
	}
}

func TestFacadeRejectsUnknowns(t *testing.T) {
	if _, err := BuildModel("GPT9", 4); err == nil {
		t.Error("unknown model accepted")
	}
	w, _ := BuildModel("BERT", 8)
	if _, err := Simulate(w, "MagicPolicy", DefaultConfig()); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFacadeLists(t *testing.T) {
	if len(Models()) != 5 {
		t.Errorf("Models() = %v", Models())
	}
	pols := Policies()
	if pols[0] != "Ideal" || len(pols) != 7 {
		t.Errorf("Policies() = %v", pols)
	}
}

func TestGraphBuilderCustomModel(t *testing.T) {
	gb := NewGraphBuilder("custom-mlp", 8)
	const mb = 1 << 20
	w1 := gb.Tensor("w1", Weight, 64*mb)
	x := gb.Tensor("x", Intermediate, 32*mb)
	h := gb.Tensor("h", Intermediate, 128*mb)
	ws := gb.Tensor("ws", Workspace, 16*mb)
	y := gb.Tensor("y", Intermediate, 32*mb)
	gb.Kernel("fc1", Forward, 5e9, []TensorID{w1, x, ws}, []TensorID{h})
	gb.Kernel("relu", Forward, 1e6, []TensorID{h}, []TensorID{h})
	gb.Kernel("fc2", Forward, 5e9, []TensorID{h, w1}, []TensorID{y})
	gb.Kernel("fc2.bwd", Backward, 1e10, []TensorID{y, h, w1}, []TensorID{h})
	gb.Kernel("fc1.bwd", Backward, 1e10, []TensorID{h, x, w1}, []TensorID{x})

	w, err := gb.Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.Kernels != 5 || s.Tensors != 5 {
		t.Fatalf("summary = %+v", s)
	}
	cfg := DefaultConfig()
	cfg.GPUMemoryGB = 0.125 // 128MB: forces migrations
	cfg.HostMemoryGB = 1
	cfg.SSDCapacityGB = 16
	rep, err := Simulate(w, "G10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("custom model failed: %s", rep.FailReason)
	}
}

// TestAdaptiveDifferential pins the online replanning layer's equivalence
// guarantees: for every
// built-in model × policy, (a) Config.Adaptive = false replays the exact
// static path, and (b) a zero-lateness run — GPU memory roomy enough that
// nothing ever migrates — with Adaptive = true is bit-identical to the
// static plan: with no migration flows the lateness signal stays zero and
// the controller never touches the program.
func TestAdaptiveDifferential(t *testing.T) {
	batches := map[string]int{"BERT": 8, "ViT": 8, "Inceptionv3": 8, "ResNet152": 8, "SENet154": 4}
	// Roomy: every working set and the full footprint fit on the GPU.
	cfg := smallConfig()
	cfg.GPUMemoryGB = 64
	acfg := cfg
	acfg.Adaptive = true
	for _, model := range Models() {
		w, err := BuildModel(model, batches[model])
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies() {
			t.Run(fmt.Sprintf("%s/%s", model, pol), func(t *testing.T) {
				static, err := Simulate(w, pol, cfg)
				if err != nil {
					t.Fatal(err)
				}
				adaptive, err := Simulate(w, pol, acfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(static, adaptive) {
					t.Errorf("zero-lateness adaptive run diverged from static:\nstatic:   %+v\nadaptive: %+v", static, adaptive)
				}
				if static.GPUToSSDGB+static.SSDToGPUGB+static.GPUToHostGB+static.HostToGPUGB > 0 {
					t.Fatalf("roomy config still migrated; the zero-lateness premise is broken: %+v", static)
				}
			})
		}
	}
	// The cluster path honours the flag the same way: a roomy two-job
	// co-simulation with Adaptive on matches the one with it off.
	bert, err := BuildModel("BERT", 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []ClusterJob{
		{Workload: bert, Policy: "G10"},
		{Workload: bert, Policy: "DeepUM+"},
	}
	off, err := SimulateCluster(jobs, ClusterConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	on, err := SimulateCluster(jobs, ClusterConfig{Config: acfg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Errorf("zero-lateness adaptive cluster diverged:\noff: %+v\non:  %+v", off, on)
	}
}

// TestClusterSingleTenantMatchesSimulate: for every built-in model × policy
// combination, a one-job SimulateCluster result must be field-for-field
// identical to Simulate — the cluster engine is the same step machine on
// the same substrate, just scheduled by the shared-clock driver.
func TestClusterSingleTenantMatchesSimulate(t *testing.T) {
	batches := map[string]int{"BERT": 8, "ViT": 8, "Inceptionv3": 8, "ResNet152": 8, "SENet154": 4}
	cfg := smallConfig()
	for _, model := range Models() {
		w, err := BuildModel(model, batches[model])
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies() {
			t.Run(fmt.Sprintf("%s/%s", model, pol), func(t *testing.T) {
				solo, err := Simulate(w, pol, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cluster, err := SimulateCluster([]ClusterJob{{Workload: w, Policy: pol}}, ClusterConfig{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				if len(cluster.Jobs) != 1 {
					t.Fatalf("%d job reports", len(cluster.Jobs))
				}
				if !reflect.DeepEqual(solo, cluster.Jobs[0]) {
					t.Errorf("1-job cluster diverged from Simulate:\nsimulate: %+v\ncluster:  %+v", solo, cluster.Jobs[0])
				}
			})
		}
	}
}

// TestSimulateClusterContention: two jobs on one array must not beat their
// solo runs, and the report aggregates must be consistent.
func TestSimulateClusterContention(t *testing.T) {
	cfg := smallConfig()
	bert, err := BuildModel("BERT", 8)
	if err != nil {
		t.Fatal(err)
	}
	resnet, err := BuildModel("ResNet152", 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateCluster([]ClusterJob{
		{Workload: bert, Policy: "G10"},
		{Workload: resnet, Policy: "Base UVM"},
	}, ClusterConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("%d jobs", len(rep.Jobs))
	}
	var sum float64
	for i, j := range rep.Jobs {
		if j.Failed {
			t.Fatalf("job %d failed: %s", i, j.FailReason)
		}
		if j.IterationSeconds <= 0 {
			t.Errorf("job %d iteration %v", i, j.IterationSeconds)
		}
		if rep.MakespanSeconds+1e-12 < j.IterationSeconds {
			t.Errorf("makespan %v below job %d iteration %v", rep.MakespanSeconds, i, j.IterationSeconds)
		}
		sum += j.Throughput
	}
	if rep.AggregateThroughput != sum {
		t.Errorf("aggregate throughput %v != sum %v", rep.AggregateThroughput, sum)
	}
	for _, pol := range []string{"G10", "Base UVM"} {
		var w *Workload
		if pol == "G10" {
			w = bert
		} else {
			w = resnet
		}
		solo, err := Simulate(w, pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shared Report
		for _, j := range rep.Jobs {
			if j.Policy == pol {
				shared = j
			}
		}
		if shared.IterationSeconds < 0.999*solo.IterationSeconds {
			t.Errorf("%s ran faster co-located (%.4fs) than alone (%.4fs)",
				pol, shared.IterationSeconds, solo.IterationSeconds)
		}
	}
}

// TestSimulateClusterRejectsBadInput covers the error paths.
func TestSimulateClusterRejectsBadInput(t *testing.T) {
	if _, err := SimulateCluster(nil, ClusterConfig{Config: DefaultConfig()}); err == nil {
		t.Error("empty cluster accepted")
	}
	w, _ := BuildModel("BERT", 8)
	if _, err := SimulateCluster([]ClusterJob{{Workload: w, Policy: "nope"}}, ClusterConfig{Config: DefaultConfig()}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := SimulateCluster([]ClusterJob{{Policy: "G10"}}, ClusterConfig{Config: DefaultConfig()}); err == nil {
		t.Error("nil workload accepted")
	}
}

// TestSimulateClusterRejectsBadConfig: a cluster configuration or job no
// system can have returns an error rather than running as some default.
func TestSimulateClusterRejectsBadConfig(t *testing.T) {
	w, err := BuildModel("BERT", 8)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	withCfg := func(mut func(c *Config)) ClusterConfig {
		c := smallConfig()
		mut(&c)
		return ClusterConfig{Config: c}
	}
	for _, tc := range []struct {
		name    string
		arrival float64
		cfg     ClusterConfig
	}{
		{"NaN arrival", nan, ClusterConfig{Config: smallConfig()}},
		{"negative arrival", -5, ClusterConfig{Config: smallConfig()}},
		{"infinite arrival", inf, ClusterConfig{Config: smallConfig()}},
		{"negative SSDs", 0, ClusterConfig{Config: smallConfig(), SSDs: -1}},
		{"negative checkpoint cadence", 0, ClusterConfig{Config: smallConfig(), CheckpointEvery: -2}},
		{"NaN host memory", 0, withCfg(func(c *Config) { c.HostMemoryGB = nan })},
		{"negative host memory", 0, withCfg(func(c *Config) { c.HostMemoryGB = -1 })},
		{"negative GPU memory", 0, withCfg(func(c *Config) { c.GPUMemoryGB = -40 })},
		{"infinite PCIe", 0, withCfg(func(c *Config) { c.PCIeBandwidthGBps = inf })},
		{"NaN SSD read", 0, withCfg(func(c *Config) { c.SSDReadGBps = nan })},
		{"negative SSD write", 0, withCfg(func(c *Config) { c.SSDWriteGBps = -3 })},
		{"infinite SSD capacity", 0, withCfg(func(c *Config) { c.SSDCapacityGB = inf })},
		{"SSD capacity past a byte count", 0, withCfg(func(c *Config) { c.SSDCapacityGB = 1e10 })},
		{"SSD capacity past the FTL's page index", 0, withCfg(func(c *Config) { c.SSDCapacityGB = 1e9 })},
		{"SSD array past a byte count", 0, ClusterConfig{Config: withCfg(func(c *Config) { c.SSDCapacityGB = 5e9 }).Config, SSDs: 4}},
		{"many drives in an array past a byte count", 0, ClusterConfig{Config: smallConfig(), SSDs: 1 << 40}},
		{"negative iterations", 0, withCfg(func(c *Config) { c.Iterations = -1 })},
	} {
		jobs := []ClusterJob{{Workload: w, Policy: "G10", ArrivalSeconds: tc.arrival}}
		if _, err := SimulateCluster(jobs, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Simulate(w, "G10", withCfg(func(c *Config) { c.HostMemoryGB = nan }).Config); err == nil {
		t.Error("Simulate accepted a NaN host memory size")
	}
	for _, gb := range []float64{1e10, 1e9} {
		if _, err := Simulate(w, "G10", withCfg(func(c *Config) { c.SSDCapacityGB = gb }).Config); err == nil {
			t.Errorf("Simulate accepted SSDCapacityGB %v", gb)
		}
	}
	// Zero still selects the defaults.
	jobs := []ClusterJob{{Workload: w, Policy: "G10"}}
	if _, err := SimulateCluster(jobs, ClusterConfig{Config: smallConfig()}); err != nil {
		t.Errorf("default cluster rejected: %v", err)
	}
}

// TestSimulateInferenceRejectsBadConfig: a serving configuration or
// request no cluster can have returns an error rather than panicking or
// running as some default.
func TestSimulateInferenceRejectsBadConfig(t *testing.T) {
	reqs := []InferenceRequest{{PromptTokens: 64, OutputTokens: 32}}
	for _, tc := range []struct {
		name string
		cfg  InferenceConfig
	}{
		{"negative servers", InferenceConfig{Servers: -1}},
		{"negative GPU blocks", InferenceConfig{GPUBlocks: -8}},
		{"negative host blocks", InferenceConfig{HostBlocks: -1, Tiered: true}},
		{"negative block tokens", InferenceConfig{BlockTokens: -16}},
		{"negative block size", InferenceConfig{BlockMB: -2}},
		{"NaN block size", InferenceConfig{BlockMB: math.NaN()}},
		{"NaN offload threshold", InferenceConfig{Tiered: true, OffloadThreshold: math.NaN()}},
	} {
		if _, err := SimulateInference(reqs, tc.cfg); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.cfg)
		}
	}
	for _, a := range []float64{math.NaN(), -5, math.Inf(1)} {
		bad := []InferenceRequest{{ArrivalSeconds: a, PromptTokens: 64, OutputTokens: 32}}
		if _, err := SimulateInference(bad, InferenceConfig{}); err == nil {
			t.Errorf("arrival %v accepted", a)
		}
	}
	if _, err := SimulateInference(reqs, InferenceConfig{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestGraphBuilderValidates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(gb *GraphBuilder)
		timeScale float64
		want      string
	}{
		{"orphan tensor", func(gb *GraphBuilder) {
			gb.Tensor("orphan", Intermediate, 1024)
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{x}, []TensorID{x})
		}, 1, "never used"},
		{"unknown input", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{7}, []TensorID{x})
		}, 1, "unknown tensor 7"},
		{"negative output", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{x}, []TensorID{-1})
		}, 1, "unknown tensor -1"},
		{"first bad kernel wins", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("first", Forward, 1, []TensorID{9}, []TensorID{x})
			gb.Kernel("second", Forward, math.NaN(), []TensorID{x}, []TensorID{x})
		}, 1, `kernel "first"`},
		{"NaN flops", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, math.NaN(), []TensorID{x}, []TensorID{x})
		}, 1, "FLOP count NaN"},
		{"infinite flops", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, math.Inf(1), []TensorID{x}, []TensorID{x})
		}, 1, "FLOP count +Inf"},
		{"negative flops", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, -1, []TensorID{x}, []TensorID{x})
		}, 1, "FLOP count -1"},
		{"NaN time scale", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{x}, []TensorID{x})
		}, math.NaN(), "time scale NaN"},
		{"infinite time scale", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{x}, []TensorID{x})
		}, math.Inf(1), "time scale +Inf"},
		{"zero time scale means 1", func(gb *GraphBuilder) {
			x := gb.Tensor("x", Intermediate, 1024)
			gb.Kernel("k", Forward, 1, []TensorID{x}, []TensorID{x})
		}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gb := NewGraphBuilder("bad", 1)
			tc.build(gb)
			_, err := gb.Workload(tc.timeScale)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSimulateClusterFaults exercises the public fault surface end to end:
// a crash mid-run destroys work and forces a restart, checkpointing
// recovers from the last snapshot instead of iteration zero, a permanent
// crash fails the job, and an unknown recovery name is rejected.
func TestSimulateClusterFaults(t *testing.T) {
	cfg := smallConfig()
	bert, err := BuildModel("BERT", 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := func(rec string) []ClusterJob {
		return []ClusterJob{
			{Workload: bert, Policy: "G10", Recovery: rec},
			{Workload: bert, Policy: "DeepUM+", Recovery: rec},
		}
	}
	clean, err := SimulateCluster(jobs(""), ClusterConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	crash := &FaultPlan{Crashes: []ServerCrash{
		{Job: 0, AtSeconds: clean.MakespanSeconds * 0.6, RepairSeconds: clean.MakespanSeconds * 0.05},
	}}

	restart, err := SimulateCluster(jobs("restart"), ClusterConfig{Config: cfg, Faults: crash})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := SimulateCluster(jobs("checkpoint"), ClusterConfig{Config: cfg, Faults: crash, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]ClusterReport{"restart": restart, "checkpoint": ckpt} {
		v := rep.Jobs[0]
		if v.Failed {
			t.Fatalf("%s: victim failed: %s", name, v.FailReason)
		}
		if v.Restarts != 1 || v.WastedSeconds <= 0 {
			t.Errorf("%s: restarts=%d wasted=%.3fs — crash left no trace", name, v.Restarts, v.WastedSeconds)
		}
		if rep.MakespanSeconds <= clean.MakespanSeconds {
			t.Errorf("%s: faulted makespan %.3fs not above clean %.3fs", name, rep.MakespanSeconds, clean.MakespanSeconds)
		}
	}
	if ckpt.Jobs[0].CheckpointWrites == 0 || ckpt.Jobs[0].CheckpointGB <= 0 {
		t.Errorf("checkpoint job wrote no snapshots: %+v", ckpt.Jobs[0])
	}
	if restart.Jobs[0].CheckpointWrites != 0 {
		t.Errorf("restart job wrote %d snapshots", restart.Jobs[0].CheckpointWrites)
	}
	if ckpt.Jobs[0].WastedSeconds > restart.Jobs[0].WastedSeconds {
		t.Errorf("checkpoint wasted %.3fs, restart %.3fs", ckpt.Jobs[0].WastedSeconds, restart.Jobs[0].WastedSeconds)
	}

	perm := &FaultPlan{Crashes: []ServerCrash{{Job: 1, AtSeconds: clean.MakespanSeconds * 0.3, Permanent: true}}}
	dead, err := SimulateCluster(jobs("restart"), ClusterConfig{Config: cfg, Faults: perm})
	if err != nil {
		t.Fatal(err)
	}
	if !dead.Jobs[1].Failed {
		t.Error("permanently crashed job reported success")
	}
	if dead.Jobs[0].Failed {
		t.Errorf("surviving job failed: %s", dead.Jobs[0].FailReason)
	}

	if _, err := SimulateCluster(jobs("reincarnate"), ClusterConfig{Config: cfg}); err == nil {
		t.Error("unknown recovery name accepted")
	}
	bad := &FaultPlan{Crashes: []ServerCrash{{Job: 5, AtSeconds: 1}}}
	if _, err := SimulateCluster(jobs(""), ClusterConfig{Config: cfg, Faults: bad}); err == nil {
		t.Error("out-of-range crash victim accepted")
	}
}
