package ssd

import (
	"testing"

	"g10sim/internal/units"
)

// tenantTestConfig is a small device that GCs quickly under churn.
func tenantTestConfig() Config {
	cfg := ZNAND()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.Capacity = 128 * units.MB
	cfg.PageSize = 64 * units.KB
	cfg.OverProvision = 0.10
	return cfg
}

func mustAllocWrite(t *testing.T, v *Tenant, pages int64) LogicalRange {
	t.Helper()
	r, err := v.Alloc(pages)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTenantAttributionSumsToDevice: with two tenants churning one device,
// each device counter must equal the sum of the tenants' attributed shares.
func TestTenantAttributionSumsToDevice(t *testing.T) {
	d := MustNew(tenantTestConfig())
	a, b := d.Tenant(), d.Tenant()
	ra := mustAllocWrite(t, a, 200)
	rb := mustAllocWrite(t, b, 100)
	// Churn: rewrites invalidate and force log growth (and eventually GC).
	for i := 0; i < 24; i++ {
		if _, err := a.Write(ra); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Write(rb); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Read(ra); err != nil {
		t.Fatal(err)
	}
	dev, sa, sb := d.Stats(), a.Stats(), b.Stats()
	sum := Stats{
		HostReadBytes:  sa.HostReadBytes + sb.HostReadBytes,
		HostWriteBytes: sa.HostWriteBytes + sb.HostWriteBytes,
		NANDWriteBytes: sa.NANDWriteBytes + sb.NANDWriteBytes,
		GCRelocated:    sa.GCRelocated + sb.GCRelocated,
		GCRuns:         sa.GCRuns + sb.GCRuns,
		Erases:         sa.Erases + sb.Erases,
	}
	if sum != dev {
		t.Errorf("tenant shares %+v do not sum to device stats %+v", sum, dev)
	}
	// A wrote 2x B's pages the same number of times: its host-write share
	// must be exactly double.
	if sa.HostWriteBytes != 2*sb.HostWriteBytes {
		t.Errorf("host writes a=%v b=%v, want 2:1", sa.HostWriteBytes, sb.HostWriteBytes)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleTenantViewEqualsDevice: one view over a fresh device accumulates
// exactly the device stats — the cluster engine's 1-tenant equivalence rests
// on this.
func TestSingleTenantViewEqualsDevice(t *testing.T) {
	d := MustNew(tenantTestConfig())
	v := d.Tenant()
	r := mustAllocWrite(t, v, 1500)
	for i := 0; i < 16; i++ {
		if _, err := v.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Read(r); err != nil {
		t.Fatal(err)
	}
	if v.Stats() != d.Stats() {
		t.Errorf("view stats %+v != device stats %+v", v.Stats(), d.Stats())
	}
	if v.WriteAmplification() != d.WriteAmplification() {
		t.Errorf("view WA %v != device WA %v", v.WriteAmplification(), d.WriteAmplification())
	}
	if d.Stats().Erases == 0 {
		t.Error("test device never garbage-collected; churn harder")
	}
}

// TestTenantGCAttribution: GC work lands on the tenant whose write triggered
// the collection.
func TestTenantGCAttribution(t *testing.T) {
	d := MustNew(tenantTestConfig())
	quiet, churner := d.Tenant(), d.Tenant()
	rq := mustAllocWrite(t, quiet, 600)
	rc := mustAllocWrite(t, churner, 700)
	_ = rq
	// Strided overlapping rewrites leave each log block a mix of churned and
	// still-valid pages, so GC victims carry live data to relocate.
	for i := 0; i < 300; i++ {
		sub := LogicalRange{Start: rc.Start + int64(i*131)%600, Count: 100}
		if _, err := churner.Write(sub); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().GCRelocated == 0 {
		t.Skip("device too large to GC under this churn")
	}
	cs, qs := churner.Stats(), quiet.Stats()
	if cs.GCRelocated <= qs.GCRelocated {
		t.Errorf("churner attributed %d relocations, quiet tenant %d", cs.GCRelocated, qs.GCRelocated)
	}
	if churner.WriteAmplification() < quiet.WriteAmplification() {
		t.Errorf("churner WA %v below quiet tenant WA %v", churner.WriteAmplification(), quiet.WriteAmplification())
	}
}
