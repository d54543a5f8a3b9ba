package ssd

import "g10sim/internal/units"

// Tenant is one cluster tenant's handle on a shared Device. Operations are
// forwarded to the device — the FTL, its log structure, and its garbage
// collector stay genuinely shared — while the stat deltas of each call are
// attributed to the calling tenant, including the GC work its writes
// trigger. A single-tenant device's view therefore accumulates exactly the
// device's own stats.
type Tenant struct {
	d     *Device
	stats Stats
}

// Tenant returns a new attribution view on the device.
func (d *Device) Tenant() *Tenant { return &Tenant{d: d} }

// PagesFor reports how many device pages hold n bytes.
func (t *Tenant) PagesFor(n units.Bytes) int64 { return t.d.PagesFor(n) }

// Alloc reserves a contiguous logical range of n pages.
func (t *Tenant) Alloc(n int64) (LogicalRange, error) { return t.d.Alloc(n) }

// Free releases a logical range (TRIM).
func (t *Tenant) Free(r LogicalRange) { t.d.Free(r) }

// Write programs the range on the shared device and attributes the host
// write plus any GC relocation it triggered to this tenant.
func (t *Tenant) Write(r LogicalRange) (gcRelocated int64, err error) {
	before := t.d.stats
	gc, err := t.d.Write(r)
	t.absorb(before)
	return gc, err
}

// Read accounts the range's read traffic to this tenant.
func (t *Tenant) Read(r LogicalRange) error {
	before := t.d.stats
	err := t.d.Read(r)
	t.absorb(before)
	return err
}

// absorb adds the device-stat delta since before to the tenant's share.
func (t *Tenant) absorb(before Stats) {
	now := t.d.stats
	t.stats.HostReadBytes += now.HostReadBytes - before.HostReadBytes
	t.stats.HostWriteBytes += now.HostWriteBytes - before.HostWriteBytes
	t.stats.NANDWriteBytes += now.NANDWriteBytes - before.NANDWriteBytes
	t.stats.GCRelocated += now.GCRelocated - before.GCRelocated
	t.stats.GCRuns += now.GCRuns - before.GCRuns
	t.stats.Erases += now.Erases - before.Erases
}

// Stats returns this tenant's attributed share of the device counters.
func (t *Tenant) Stats() Stats { return t.stats }

// WriteAmplification reports the tenant's attributed NAND writes divided by
// its host writes (>= 1): a tenant whose write pattern churns the shared log
// is charged for the relocations it causes.
func (t *Tenant) WriteAmplification() float64 {
	if t.stats.HostWriteBytes == 0 {
		return 1
	}
	return float64(t.stats.NANDWriteBytes) / float64(t.stats.HostWriteBytes)
}

// EffectiveWriteBandwidth is the shared device's sustained write bandwidth
// (GC degradation is a property of the array, not of one tenant).
func (t *Tenant) EffectiveWriteBandwidth() units.Bandwidth { return t.d.EffectiveWriteBandwidth() }
