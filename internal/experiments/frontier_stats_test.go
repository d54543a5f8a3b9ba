package experiments

import (
	"testing"

	"g10sim/internal/gpu"
)

// TestFleetFrontierReuses pins the PR 8 perf mechanism on the workload it
// targets: the fleet study's real dynamic-arrival trace couples most
// tenants through the shared array channels into one giant component, so a
// healthy share of rate re-derivations must be served by frontier refills
// of the recorded fill trace. (That the refill is bit-identical to the
// reference fill is pinned in flownet, on the op stream the drivers issue.)
func TestFleetFrontierReuses(t *testing.T) {
	s := NewSession(Options{Short: true})
	jobs, err := s.fleetTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.fleetParams("G10", jobs)
	if err != nil {
		t.Fatal(err)
	}
	var es gpu.EngineStats
	p.Engine = &es
	p.Plans = &s.plans
	if _, err := gpu.RunCluster(p); err != nil {
		t.Fatal(err)
	}
	if es.FillRounds <= 0 || es.FillResScans <= 0 {
		t.Fatalf("fill counters not populated: %+v", es)
	}
	if es.FrontierReuses <= 0 {
		t.Errorf("fleet trace produced no frontier reuses (recomputes=%d)", es.FlowRecomputes)
	}
	t.Logf("fleet trace: recomputes=%d frontier reuses=%d (%.0f%%); resScans=%d",
		es.FlowRecomputes, es.FrontierReuses,
		100*float64(es.FrontierReuses)/float64(es.FlowRecomputes), es.FillResScans)
}
