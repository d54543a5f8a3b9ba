package experiments

import (
	"reflect"
	"testing"

	"g10sim/internal/flownet"
	"g10sim/internal/gpu"
)

// TestFleetFrontierReuses pins the PR 8 perf mechanism on the workload it
// targets: the fleet study's real dynamic-arrival trace couples most
// tenants through the shared array channels into one giant component, so a
// healthy share of rate re-derivations must be served by frontier refills
// of the recorded fill trace. Under ForceReferenceFillForTest the count
// must be exactly zero — and the simulation results bit-identical.
func TestFleetFrontierReuses(t *testing.T) {
	s := NewSession(Options{Short: true})
	jobs, err := s.fleetTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() (gpu.ClusterResult, gpu.EngineStats) {
		p, err := s.fleetParams("G10", jobs)
		if err != nil {
			t.Fatal(err)
		}
		var es gpu.EngineStats
		p.Engine = &es
		p.Plans = &s.plans
		res, err := gpu.RunCluster(p)
		if err != nil {
			t.Fatal(err)
		}
		return res, es
	}
	heapRes, heapES := runOnce()
	if heapES.FillRounds <= 0 || heapES.FillResScans <= 0 {
		t.Fatalf("fill counters not populated: %+v", heapES)
	}
	if heapES.FrontierReuses <= 0 {
		t.Errorf("fleet trace produced no frontier reuses (recomputes=%d)", heapES.FlowRecomputes)
	}

	flownet.ForceReferenceFillForTest(true)
	defer flownet.ForceReferenceFillForTest(false)
	refRes, refES := runOnce()
	if refES.FrontierReuses != 0 {
		t.Errorf("reference fill reported %d frontier reuses, want 0", refES.FrontierReuses)
	}
	if !reflect.DeepEqual(heapRes, refRes) {
		t.Errorf("heap fill diverged from reference fill on the fleet trace")
	}
	t.Logf("fleet trace: recomputes=%d frontier reuses=%d (%.0f%%); resScans heap=%d ref=%d",
		heapES.FlowRecomputes, heapES.FrontierReuses,
		100*float64(heapES.FrontierReuses)/float64(heapES.FlowRecomputes),
		heapES.FillResScans, refES.FillResScans)
}
