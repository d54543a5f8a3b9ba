package gpu

import (
	"reflect"
	"testing"

	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
)

// TestClusterSingleTenantMatchesRun: Run is a one-tenant cluster, and a
// lone tenant's attributed share of the flash array is the whole array:
// its SSDStats and WriteAmp equal the array's, on a host pool tight
// enough that evictions write to flash.
func TestClusterSingleTenantMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		strict bool
	}{
		{"uvm-lru", false},
		{"strict", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := analyze(t, models.TinyCNN(128), 200)
			cfg := testCfg(a.PeakAlive()/2, 4*units.MB)
			cres := mustRunCluster(t, ClusterParams{
				Tenants: []ClusterTenant{{Analysis: a, Policy: &testPolicy{name: tc.name, strict: tc.strict}, Config: cfg}},
				Shared:  cfg,
			})
			if len(cres.Tenants) != 1 {
				t.Fatalf("%d tenant results", len(cres.Tenants))
			}
			solo := cres.Tenants[0]
			if solo.Failed || cres.SSDStats.HostWriteBytes == 0 {
				t.Fatalf("vacuous run: failed=%v (%s), array stats %+v", solo.Failed, solo.FailReason, cres.SSDStats)
			}
			if solo.SSDStats != cres.SSDStats {
				t.Errorf("tenant stats %+v != array stats %+v", solo.SSDStats, cres.SSDStats)
			}
			if solo.WriteAmp != cres.WriteAmp {
				t.Errorf("tenant write amplification %v != array's %v", solo.WriteAmp, cres.WriteAmp)
			}
		})
	}
}

// TestClusterDeterminism: co-simulation output is a pure function of its
// inputs.
func TestClusterDeterminism(t *testing.T) {
	run := func() ClusterResult {
		a1 := analyze(t, models.TinyCNN(128), 200)
		a2 := analyze(t, models.TinyMLP(64), 50)
		cfg1 := testCfg(a1.PeakAlive()/2, 256*units.MB)
		cfg2 := testCfg(a2.PeakAlive()/2, 256*units.MB)
		res, err := RunCluster(ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a1, Policy: &testPolicy{name: "t1"}, Config: cfg1},
				{Analysis: a2, Policy: &testPolicy{name: "t2"}, Config: cfg2},
			},
			Shared: cfg1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("non-deterministic cluster:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestClusterContentionSlowsTenants: two tenants sharing one array must
// each run no faster than they do alone on the same array, and at least
// one must be measurably slower (they contend on SSD channels and host
// memory).
func TestClusterContentionSlowsTenants(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	// A small host forces SSD traffic, where the shared channels contend.
	cfg := testCfg(a.PeakAlive()/2, 4*units.MB)
	solo, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{{Analysis: a, Policy: &testPolicy{name: "solo"}, Config: cfg}},
		Shared:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{
			{Analysis: a, Policy: &testPolicy{name: "a"}, Config: cfg},
			{Analysis: a, Policy: &testPolicy{name: "b"}, Config: cfg},
		},
		Shared: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	soloTime := solo.Tenants[0].IterationTime
	var slower int
	for i, res := range duo.Tenants {
		if res.Failed {
			t.Fatalf("tenant %d failed: %s", i, res.FailReason)
		}
		if float64(res.IterationTime) < 0.999*float64(soloTime) {
			t.Errorf("tenant %d faster under contention: %v vs solo %v", i, res.IterationTime, soloTime)
		}
		if float64(res.IterationTime) > 1.02*float64(soloTime) {
			slower++
		}
	}
	if slower == 0 {
		t.Errorf("no tenant slowed by sharing the array (solo %v, duo %v/%v)",
			soloTime, duo.Tenants[0].IterationTime, duo.Tenants[1].IterationTime)
	}
	if duo.Makespan < units.Duration(soloTime) {
		t.Errorf("makespan %v below a single tenant's iteration span", duo.Makespan)
	}
}

// TestClusterSSDAttribution: per-tenant attributed SSD stats must sum to
// the array totals.
func TestClusterSSDAttribution(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	cfg := testCfg(a.PeakAlive()/2, 4*units.MB) // tiny host: all traffic hits flash
	res, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{
			{Analysis: a, Policy: &testPolicy{name: "a"}, Config: cfg},
			{Analysis: a, Policy: &testPolicy{name: "b"}, Config: cfg},
		},
		Shared: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var hostW, nandW, gcReloc units.Bytes
	for _, tr := range res.Tenants {
		hostW += tr.SSDStats.HostWriteBytes
		nandW += tr.SSDStats.NANDWriteBytes
		gcReloc += units.Bytes(tr.SSDStats.GCRelocated)
	}
	if hostW != res.SSDStats.HostWriteBytes {
		t.Errorf("tenant host writes %v != array %v", hostW, res.SSDStats.HostWriteBytes)
	}
	if nandW != res.SSDStats.NANDWriteBytes {
		t.Errorf("tenant NAND writes %v != array %v", nandW, res.SSDStats.NANDWriteBytes)
	}
	if gcReloc != units.Bytes(res.SSDStats.GCRelocated) {
		t.Errorf("tenant GC relocations %v != array %v", gcReloc, res.SSDStats.GCRelocated)
	}
	if res.SSDStats.HostWriteBytes == 0 {
		t.Error("no flash writes despite tiny host memory")
	}
}

// TestClusterSharedHostPool: one tenant parking data in host memory starves
// the other's host-bound evictions into flash — the contention a static
// capacity split cannot express.
func TestClusterSharedHostPool(t *testing.T) {
	a := analyze(t, models.TinyCNN(128), 200)
	// Host sized so one tenant's evictions roughly fill it.
	cfg := testCfg(a.PeakAlive()/2, 24*units.MB)
	solo, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{{Analysis: a, Policy: &testPolicy{name: "solo"}, Config: cfg}},
		Shared:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{
			{Analysis: a, Policy: &testPolicy{name: "a"}, Config: cfg},
			{Analysis: a, Policy: &testPolicy{name: "b"}, Config: cfg},
		},
		Shared: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	soloSSD := solo.Tenants[0].GPUToSSD
	duoSSD := duo.Tenants[0].GPUToSSD + duo.Tenants[1].GPUToSSD
	if duoSSD < 2*soloSSD {
		t.Errorf("shared host pool did not push extra evictions to flash: duo %v < 2x solo %v", duoSSD, soloSSD)
	}
}

// TestClusterRejectsEmptyAndBadTrace covers the error paths.
func TestClusterRejectsEmptyAndBadTrace(t *testing.T) {
	if _, err := RunCluster(ClusterParams{}); err == nil {
		t.Error("empty cluster accepted")
	}
	a := analyze(t, models.TinyMLP(8), 1)
	_, err := RunCluster(ClusterParams{
		Tenants: []ClusterTenant{{
			Analysis:  a,
			Policy:    &testPolicy{name: "x"},
			Config:    testCfg(1<<40, 1<<40),
			ExecTrace: &profile.Trace{Durations: []units.Duration{1}},
		}},
		Shared: testCfg(1<<40, 1<<40),
	})
	if err == nil {
		t.Error("mismatched exec trace accepted")
	}
}
