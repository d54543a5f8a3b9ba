package experiments

import (
	"testing"

	"g10sim/internal/gpu"
)

// TestFleetFrontierReuses: the fleet study's real dynamic-arrival trace
// couples most tenants through the shared array channels into one giant
// component, and the cluster driver must report the fill-work counters of
// its rate re-derivations, with the retired frontier-reuse count at 0.
// (That the heap fill is bit-identical to the reference fill is pinned in
// flownet, on the op stream the drivers issue. The name is kept from the
// frontier-incremental refill this test once measured; DESIGN.md §13.)
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
	if es.FrontierReuses != 0 {
		t.Errorf("fleet trace reported %d frontier reuses, want 0", es.FrontierReuses)
	}
	t.Logf("fleet trace: recomputes=%d rounds=%d resScans=%d",
		es.FlowRecomputes, es.FillRounds, es.FillResScans)
}
