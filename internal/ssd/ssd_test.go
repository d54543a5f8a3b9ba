package ssd

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"g10sim/internal/units"
)

// smallConfig is a 64MB device with 4KB mapping units for fast tests.
func smallConfig() Config {
	return Config{
		Channels:        2,
		ChipsPerChannel: 2,
		PageSize:        4 * units.KB,
		PagesPerBlock:   16,
		Capacity:        64 * units.MB,
		OverProvision:   0.15,
		GCThreshold:     0.08,
		ReadBandwidth:   units.GBps(3.2),
		WriteBandwidth:  units.GBps(3.0),
		ReadLatency:     20 * units.Microsecond,
		WriteLatency:    16 * units.Microsecond,
	}
}

func TestAllocWriteReadRoundTrip(t *testing.T) {
	d := MustNew(smallConfig())
	r, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(r); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.HostWriteBytes != 100*4*units.KB || st.HostReadBytes != 100*4*units.KB {
		t.Errorf("stats = %+v", st)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnmappedFails(t *testing.T) {
	d := MustNew(smallConfig())
	r, _ := d.Alloc(10)
	if err := d.Read(r); err == nil {
		t.Error("read of never-written range succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	d := MustNew(smallConfig())
	logical := int64(64 * units.MB / (4 * units.KB))
	if _, err := d.Alloc(logical); err != nil {
		t.Fatalf("full-device alloc failed: %v", err)
	}
	_, err := d.Alloc(1)
	if want := "ssd: out of logical space (1 pages requested, 0 free at tail)"; err == nil || err.Error() != want {
		t.Errorf("over-alloc: err = %v, want %q", err, want)
	}
}

func TestFreeEnablesReuse(t *testing.T) {
	d := MustNew(smallConfig())
	logical := int64(64 * units.MB / (4 * units.KB))
	r, err := d.Alloc(logical)
	if err != nil {
		t.Fatal(err)
	}
	d.Free(r)
	r2, err := d.Alloc(logical / 2)
	if err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
	if _, err := d.Write(r2); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteInvalidatesOldPages(t *testing.T) {
	d := MustNew(smallConfig())
	r, _ := d.Alloc(50)
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	free1 := d.FreePhysicalPages()
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	free2 := d.FreePhysicalPages()
	if free2 >= free1 {
		t.Errorf("rewrite did not consume fresh pages: %d -> %d", free1, free2)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// WA is still 1 until GC runs.
	if wa := d.WriteAmplification(); wa != 1 {
		t.Errorf("WA before GC = %v", wa)
	}
}

func TestGCReclaimsSpaceUnderChurn(t *testing.T) {
	d := MustNew(smallConfig())
	// Fill 70% of the logical space, then rewrite it repeatedly: GC must
	// keep the device writable and WA must stay finite and >= 1.
	logical := int64(64 * units.MB / (4 * units.KB))
	r, err := d.Alloc(logical * 7 / 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := d.Write(r); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
		checkFreeLedger(t, d)
	}
	if d.Stats().GCRuns == 0 {
		t.Error("GC never ran under churn")
	}
	wa := d.WriteAmplification()
	if wa < 1 || wa > 5 {
		t.Errorf("write amplification = %v, want [1, 5]", wa)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// checkFreeLedger compares FreePhysicalPages with the program/erase
// ledger, which debits a page per program and credits a block per erase.
// They agree until GC runs. After it the count sits below the ledger by
// the unwritten tails of GC destination blocks that a host write replaced
// before they filled: those pages are not free, and erasing such a block
// frees fewer programmed pages than the ledger credits.
func checkFreeLedger(t *testing.T, d *Device) {
	t.Helper()
	st := d.Stats()
	ppb := int64(d.cfg.PagesPerBlock)
	ledger := d.blocks*ppb - int64(st.NANDWriteBytes/d.PageSize()) + st.Erases*ppb
	if got := d.FreePhysicalPages(); got > ledger || st.GCRuns == 0 && got != ledger {
		t.Fatalf("%d free physical pages, program/erase ledger says %d after %d GC runs", got, ledger, st.GCRuns)
	}
}

func TestWAGrowsWithUtilization(t *testing.T) {
	// Random sub-range overwrites fragment block validity; sequential
	// rewrites would age out whole blocks and keep WA at 1.
	churn := func(frac float64) float64 {
		rng := rand.New(rand.NewSource(3))
		d := MustNew(smallConfig())
		logical := int64(64 * units.MB / (4 * units.KB))
		n := int64(float64(logical) * frac)
		r, err := d.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Write(r); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 12*n/8; i++ {
			off := rng.Int63n(n - 8)
			sub := LogicalRange{Start: r.Start + off, Count: 8}
			if _, err := d.Write(sub); err != nil {
				t.Fatal(err)
			}
		}
		return d.WriteAmplification()
	}
	low := churn(0.3)
	high := churn(0.9)
	if high < low {
		t.Errorf("WA at 90%% utilization (%v) below WA at 30%% (%v)", high, low)
	}
	if high <= 1 {
		t.Errorf("WA at 90%% utilization = %v, want > 1", high)
	}
}

func TestEffectiveWriteBandwidthDegradesWithWA(t *testing.T) {
	d := MustNew(smallConfig())
	rated := d.Config().WriteBandwidth
	if d.EffectiveWriteBandwidth() != rated {
		t.Error("fresh device should deliver rated write bandwidth")
	}
	logical := int64(64 * units.MB / (4 * units.KB))
	n := logical * 9 / 10
	r, _ := d.Alloc(n)
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := int64(0); i < 12*n/8; i++ {
		off := rng.Int63n(n - 8)
		if _, err := d.Write(LogicalRange{Start: r.Start + off, Count: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if eff := d.EffectiveWriteBandwidth(); eff >= rated {
		t.Errorf("effective write bandwidth %v did not degrade from %v under churn", eff, rated)
	}
	if d.EffectiveReadBandwidth() != d.Config().ReadBandwidth {
		t.Error("read bandwidth should stay rated")
	}
}

// TestEffectiveWriteBandwidthCacheTracksWrites: the cached effective write
// bandwidth must be indistinguishable from recomputing it — every Write
// (including the GC it may trigger) invalidates the cache.
func TestEffectiveWriteBandwidthCacheTracksWrites(t *testing.T) {
	d := MustNew(smallConfig())
	logical := int64(64 * units.MB / (4 * units.KB))
	n := logical * 9 / 10
	r, _ := d.Alloc(n)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		off := rng.Int63n(n - 8)
		if _, err := d.Write(LogicalRange{Start: r.Start + off, Count: 8}); err != nil {
			t.Fatal(err)
		}
		want := units.Bandwidth(float64(d.Config().WriteBandwidth) / d.WriteAmplification())
		if got := d.EffectiveWriteBandwidth(); got != want {
			t.Fatalf("write %d: cached effective bandwidth %v, fresh computation %v", i, got, want)
		}
		// Re-reading without an intervening write must hit the cache and
		// return the identical value.
		if got := d.EffectiveWriteBandwidth(); got != want {
			t.Fatalf("write %d: cache re-read drifted to %v from %v", i, got, want)
		}
	}
}

func TestLifetimeYearsMatchesPaperFormula(t *testing.T) {
	// §7.7: 30 DWPD × 1825 days × 3.2TB at 1.5 GB/s of writes ≈ 3.7 years.
	cfg := ZNAND()
	years := cfg.LifetimeYears(units.GBps(1.5))
	if years < 3.5 || years > 3.9 {
		t.Errorf("lifetime = %.2f years, paper computes ~3.7", years)
	}
	if cfg.LifetimeYears(0) != 0 {
		t.Error("zero write rate should yield zero lifetime")
	}
	// Halving the write rate doubles the lifetime.
	double := cfg.LifetimeYears(units.GBps(0.75))
	if ratio := double / years; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("lifetime scaling ratio = %v", ratio)
	}
}

func TestZNANDDefaults(t *testing.T) {
	cfg := ZNAND()
	if cfg.Capacity != 3200*units.GB {
		t.Errorf("capacity = %v", cfg.Capacity)
	}
	if cfg.ReadBandwidth.GBpsValue() != 3.2 || cfg.WriteBandwidth.GBpsValue() != 3.0 {
		t.Error("bandwidths do not match Table 2")
	}
	if cfg.ReadLatency != 20*units.Microsecond || cfg.WriteLatency != 16*units.Microsecond {
		t.Error("latencies do not match Table 2")
	}
	d := MustNew(cfg)
	if got := d.PagesFor(units.GB); got != 1024 {
		t.Errorf("PagesFor(1GB) = %d with 1MB pages", got)
	}
}

func TestNewRejectsTinyGeometry(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 64 * units.KB
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("expected geometry error, got %v", err)
	}
}

// TestNewRejectsOversizedGeometry: the FTL maps store 32-bit page indices,
// so New refuses a geometry with more than math.MaxInt32 physical pages
// with an error, and a page index just below the limit round-trips.
func TestNewRejectsOversizedGeometry(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 8 * units.TB // 2^31 logical 4KB pages, 2.47e9 physical
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("8TB of 4KB pages: err = %v, want a too-large error", err)
	}
	cfg.Capacity = 6 * units.TB // 1.85e9 physical pages
	if _, err := New(cfg); err != nil {
		t.Errorf("6TB of 4KB pages rejected: %v", err)
	}
	m := newPageMap(math.MaxInt32)
	const top = math.MaxInt32 - 1
	if m.at(top) != unmapped {
		t.Errorf("untouched entry reads %d, want unmapped", m.at(top))
	}
	m.set(top, top)
	if got := m.at(top); got != top {
		t.Errorf("entry %d round-trips to %d", int64(top), got)
	}
}

// TestDeviceAllocPerPage bounds the heap bytes a device allocates, from
// New on, per page BenchmarkFTL's train stream programs without GC. The
// 32-bit forward and reverse maps cost 8 B for each page whose chunk is
// touched, and freed logical ranges are reused, so the stream costs about
// 5.3 B per page; 64-bit maps, a page-state byte and drive-sized block
// tables cost about 10.9 B.
func TestDeviceAllocPerPage(t *testing.T) {
	const maxPerPage = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := MustNew(ZNAND())
	trainStream(t, d)
	runtime.ReadMemStats(&after)
	pages := int64(d.Stats().HostWriteBytes / d.PageSize())
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(pages)
	t.Logf("device allocated %.2f B per programmed page over %d pages", per, pages)
	if per > maxPerPage {
		t.Errorf("device allocated %.2f B per programmed page, want <= %d", per, maxPerPage)
	}
	if d.Stats().GCRuns != 0 {
		t.Errorf("train stream ran GC %d times, want a no-GC stream", d.Stats().GCRuns)
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	d := MustNew(smallConfig())
	if _, err := d.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := d.Alloc(-3); err == nil {
		t.Error("Alloc(-3) succeeded")
	}
}

// TestRandomChurnConsistency fuzzes alloc/write/free cycles and checks FTL
// invariants hold throughout, and that the allocated-page count equals the
// pages of the live ranges whether Alloc reused a freed range or extended
// the tail.
func TestRandomChurnConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := MustNew(smallConfig())
	live := []LogicalRange{}
	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0: // alloc+write
			n := int64(rng.Intn(64) + 1)
			r, err := d.Alloc(n)
			if err != nil {
				// Device full: free something instead.
				if len(live) > 0 {
					d.Free(live[0])
					live = live[1:]
				}
				continue
			}
			if _, err := d.Write(r); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			live = append(live, r)
		case 1: // rewrite
			if len(live) == 0 {
				continue
			}
			r := live[rng.Intn(len(live))]
			if _, err := d.Write(r); err != nil {
				t.Fatalf("step %d rewrite: %v", step, err)
			}
		case 2: // free
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			d.Free(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		var held int64
		for _, r := range live {
			held += r.Count
		}
		if got := d.AllocatedPages(); got != held || got > d.LogicalPages() {
			t.Fatalf("step %d: %d allocated pages of %d, live ranges hold %d", step, got, d.LogicalPages(), held)
		}
		if step%50 == 0 {
			if err := d.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkFreeLedger(t, d)
		}
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if d.WriteAmplification() < 1 {
		t.Errorf("WA = %v < 1", d.WriteAmplification())
	}
}

func TestGCReportsRelocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := MustNew(smallConfig())
	logical := int64(64 * units.MB / (4 * units.KB))
	n := logical * 9 / 10
	r, _ := d.Alloc(n)
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := int64(0); i < 12*n/8; i++ {
		off := rng.Int63n(n - 8)
		gc, err := d.Write(LogicalRange{Start: r.Start + off, Count: 8})
		if err != nil {
			t.Fatal(err)
		}
		total += gc
	}
	if total != d.Stats().GCRelocated {
		t.Errorf("per-write GC sum %d != stats %d", total, d.Stats().GCRelocated)
	}
	if total == 0 {
		t.Error("expected GC relocations under 90% churn")
	}
}

// TestFailDies: die failures shrink bandwidth and allocatable space by the
// dead fraction, clamp so one die survives, and leave written data readable.
func TestFailDies(t *testing.T) {
	d := MustNew(smallConfig()) // 2 channels x 2 chips = 4 dies
	r, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	wbw, rbw := d.EffectiveWriteBandwidth(), d.EffectiveReadBandwidth()

	if got := d.FailDies(2); got != 2 {
		t.Fatalf("FailDies(2) = %d, want 2", got)
	}
	if d.DeadChips() != 2 {
		t.Errorf("DeadChips = %d, want 2", d.DeadChips())
	}
	if got := d.EffectiveWriteBandwidth(); got != wbw/2 {
		t.Errorf("write bandwidth = %v after losing half the dies, want %v", got, wbw/2)
	}
	if got := d.EffectiveReadBandwidth(); got != rbw/2 {
		t.Errorf("read bandwidth = %v after losing half the dies, want %v", got, rbw/2)
	}
	if err := d.Read(r); err != nil {
		t.Errorf("surviving data unreadable after die failure: %v", err)
	}

	// At least one die always survives: asking for the rest clamps.
	if got := d.FailDies(10); got != 1 {
		t.Errorf("FailDies(10) = %d with one spare die, want 1", got)
	}
	if got := d.FailDies(1); got != 0 {
		t.Errorf("FailDies on the last die = %d, want 0", got)
	}
}

// TestFailDiesShrinksAllocTail: dead dies bound new allocations while
// existing ranges persist.
func TestFailDiesShrinksAllocTail(t *testing.T) {
	d := MustNew(smallConfig())
	total := d.logicalPages
	r, err := d.Alloc(total / 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(r); err != nil {
		t.Fatal(err)
	}
	d.FailDies(2) // half the array gone
	if _, err := d.Alloc(total / 2); err == nil {
		t.Error("alloc past the shrunken tail succeeded")
	}
	if _, err := d.Alloc(total / 8); err != nil {
		t.Errorf("alloc within the surviving space failed: %v", err)
	}
	if err := d.Read(r); err != nil {
		t.Errorf("pre-failure range unreadable: %v", err)
	}
}

// TestHealthyDeviceBandwidthExact: with no failures the alive fraction must
// be exactly 1.0 — fault-free effective bandwidths are bit-identical to the
// pre-fault-model values.
func TestHealthyDeviceBandwidthExact(t *testing.T) {
	d := MustNew(smallConfig())
	cfg := smallConfig().withDefaults()
	if got := d.EffectiveReadBandwidth(); got != cfg.ReadBandwidth {
		t.Errorf("healthy read bandwidth = %v, want rated %v", got, cfg.ReadBandwidth)
	}
	if got := d.EffectiveWriteBandwidth(); got != cfg.WriteBandwidth {
		t.Errorf("healthy write bandwidth = %v, want rated %v (WA=1)", got, cfg.WriteBandwidth)
	}
}
