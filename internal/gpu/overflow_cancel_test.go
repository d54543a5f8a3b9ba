package gpu

import (
	"strings"
	"testing"

	"g10sim/internal/dnn"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// oversizedWorkload builds a one-kernel graph whose working set (a 100MB
// weight plus a 1MB intermediate) exceeds a 10MB GPU.
func oversizedWorkload(t *testing.T) *vitality.Analysis {
	t.Helper()
	b := dnn.NewBuilder("fat", 1)
	w := b.Tensor("W", dnn.Global, 100*units.MB)
	x := b.Tensor("X", dnn.Intermediate, units.MB)
	b.Kernel("k", dnn.Forward, 1, []*dnn.Tensor{w, x}, []*dnn.Tensor{x})
	g := b.MustBuild()
	a, err := vitality.Analyze(g, &profile.Trace{Durations: []units.Duration{units.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStreamOverflowCountersUVM: a working set above GPU memory streams
// under a UVM policy, and every ledger and fault counter reflects exactly
// the streamed volume.
func TestStreamOverflowCountersUVM(t *testing.T) {
	a := oversizedWorkload(t)
	cfg := testCfg(10*units.MB, units.GB)
	res, err := Run(RunParams{Analysis: a, Policy: &testPolicy{name: "uvm"}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("UVM run failed: %s", res.FailReason)
	}
	const streamed = 100 * units.MB // the host-resident weight streams; X fits
	if res.OverflowKernels != 1 {
		t.Errorf("overflow kernels = %d, want 1", res.OverflowKernels)
	}
	if res.OverflowBytes != streamed {
		t.Errorf("overflow bytes = %v, want %v", res.OverflowBytes, streamed)
	}
	// Faults are charged per 32MB fault group of the streamed volume.
	wantGroups := int64(units.PagesFor(streamed, 32*units.MB))
	if res.Faults != wantGroups {
		t.Errorf("faults = %d, want %d fault groups", res.Faults, wantGroups)
	}
	if res.FaultedBytes != streamed {
		t.Errorf("faulted bytes = %v, want %v", res.FaultedBytes, streamed)
	}
	// The weight streams in from host memory over the measured iteration;
	// nothing is written back out (X lives in GPU memory).
	if res.HostToGPU != streamed {
		t.Errorf("host->gpu ledger = %v, want %v", res.HostToGPU, streamed)
	}
	if res.GPUToHost != 0 || res.SSDToGPU != 0 || res.GPUToSSD != 0 {
		t.Errorf("unexpected traffic: gpu->host %v, ssd->gpu %v, gpu->ssd %v",
			res.GPUToHost, res.SSDToGPU, res.GPUToSSD)
	}
	// The streaming penalty shows up as stall time on top of the trace.
	if res.StallTime <= 0 {
		t.Errorf("stall time = %v; overflow streaming charged nothing", res.StallTime)
	}
}

// TestStreamOverflowFailsNonUVM: the same workload under a FlashNeuron-
// style (non-UVM) manager must abort with the footnote-1 reason and move
// nothing.
func TestStreamOverflowFailsNonUVM(t *testing.T) {
	a := oversizedWorkload(t)
	cfg := testCfg(10*units.MB, units.GB)
	res, err := Run(RunParams{Analysis: a, Policy: &testPolicy{name: "strict", strict: true}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("non-UVM policy executed a working set above GPU memory")
	}
	if !strings.Contains(res.FailReason, "exceeds GPU memory") {
		t.Errorf("fail reason %q does not state the footnote-1 cause", res.FailReason)
	}
	if res.OverflowKernels != 0 || res.OverflowBytes != 0 {
		t.Errorf("failed run recorded overflow streaming: %d kernels, %v",
			res.OverflowKernels, res.OverflowBytes)
	}
}

// scanPendBytes recomputes the machine's incremental pending-fetch and
// pending-eviction byte counters from a fresh scan over every tensor state.
func scanPendBytes(m *Machine) (fetch, evict units.Bytes) {
	for i := range m.states {
		st := &m.states[i]
		pend := st.pend()
		if pend == nil {
			continue
		}
		if pend.Kind == uvm.PreEvict {
			evict += m.g.Tensors[i].Size
		} else if st.fly() == nil {
			fetch += m.g.Tensors[i].Size
		}
	}
	return fetch, evict
}

// checkPendCounters compares the incremental counters against a fresh scan.
func checkPendCounters(t *testing.T, m *Machine, when string) {
	t.Helper()
	fetch, evict := scanPendBytes(m)
	if m.pendFetchBytes != fetch {
		t.Errorf("%s: pendFetchBytes = %v, fresh scan %v", when, m.pendFetchBytes, fetch)
	}
	if m.evictPendBytes != evict {
		t.Errorf("%s: evictPendBytes = %v, fresh scan %v", when, m.evictPendBytes, evict)
	}
}

// TestCancelStalledFetchesRollsBackExactly: a fetch blocked mid-chain is
// rolled back; the bytes reported freed match the GPU-memory delta, the
// source copy survives, and the incremental pend counters agree with a
// fresh scan before and after.
func TestCancelStalledFetchesRollsBackExactly(t *testing.T) {
	cfg := testCfg(130*units.MB, units.GB)
	cfg.MigrationChunk = 10 * units.MB
	m, ids := twoTensorMachine(t, cfg)

	// Park A (100MB) in host memory.
	m.alloc(ids["A"])
	m.RequestEvict(ids["A"], uvm.InHost)
	for m.Loc(ids["A"]) == uvm.InGPU {
		if !m.waitNext() {
			t.Fatal("eviction stuck")
		}
	}
	// Occupy 50MB with B, then fetch A back: 8 of its 10 chunks fit
	// (50 + 80 = 130), the 9th blocks.
	if !m.alloc(ids["B"]) {
		t.Fatal("alloc B failed")
	}
	if !m.RequestFetch(ids["A"], uvm.Prefetch) {
		t.Fatal("fetch rejected")
	}
	for m.waitNext() {
	}
	stA := &m.states[ids["A"]]
	if stA.moving() == nil || stA.fly() != nil {
		t.Fatalf("A not blocked mid-fetch: mig=%v fly=%v", stA.mig, stA.fly())
	}
	landed := stA.mig.moved
	if landed != 80*units.MB {
		t.Fatalf("landed chunks = %v, want 80MB", landed)
	}
	checkPendCounters(t, m, "before cancel")

	freeBefore := m.GPUFree()
	hostBefore := m.host.Used()
	freed := m.cancelStalledFetches(map[int]bool{ids["B"]: true})
	if freed != landed {
		t.Errorf("cancel reported %v freed, landed chunks were %v", freed, landed)
	}
	if got := m.GPUFree() - freeBefore; got != freed {
		t.Errorf("GPU free grew by %v, cancel claimed %v", got, freed)
	}
	checkPendCounters(t, m, "after cancel")
	if stA.mig != nil {
		t.Error("cancelled fetch left request/migration state behind")
	}
	if m.Loc(ids["A"]) != uvm.InHost {
		t.Errorf("A at %v; the host source copy must survive a rollback", m.Loc(ids["A"]))
	}
	if m.host.Used() != hostBefore {
		t.Errorf("host pool changed across rollback: %v -> %v", hostBefore, m.host.Used())
	}

	// The fetch restarts cleanly afterwards.
	if !m.RequestFetch(ids["A"], uvm.Prefetch) {
		t.Fatal("re-fetch rejected after rollback")
	}
	m.free(ids["B"])
	for m.Loc(ids["A"]) != uvm.InGPU {
		if !m.waitNext() {
			t.Fatal("re-fetch stuck")
		}
	}
	checkPendCounters(t, m, "after re-fetch")
}

// TestCancelStalledFetchesSkipsPinnedAndFlying: pinned tensors and fetches
// with a chunk in flight are left alone.
func TestCancelStalledFetchesSkipsPinnedAndFlying(t *testing.T) {
	cfg := testCfg(130*units.MB, units.GB)
	cfg.MigrationChunk = 10 * units.MB
	m, ids := twoTensorMachine(t, cfg)
	m.alloc(ids["A"])
	m.RequestEvict(ids["A"], uvm.InHost)
	for m.Loc(ids["A"]) == uvm.InGPU {
		m.waitNext()
	}
	m.alloc(ids["B"])
	m.RequestFetch(ids["A"], uvm.Prefetch)

	// First chunk is still in flight: nothing to cancel.
	if freed := m.cancelStalledFetches(nil); freed != 0 {
		t.Errorf("cancelled %v from an in-flight fetch", freed)
	}
	for m.waitNext() {
	}
	// Blocked now, but pinned: still nothing.
	if freed := m.cancelStalledFetches(map[int]bool{ids["A"]: true}); freed != 0 {
		t.Errorf("cancelled %v from a pinned fetch", freed)
	}
	checkPendCounters(t, m, "after pinned no-op")
}
