// Package ssd simulates the flash solid-state drive backing the unified
// memory space: geometry (channels × chips × blocks × pages), a page-mapped
// flash translation layer with log-structured writes, greedy garbage
// collection with overprovisioning, write-amplification accounting, and the
// DWPD lifetime model of the paper's §7.7.
//
// The exterior timing contract (sustained read/write bandwidth and access
// latency) is calibrated to the Samsung Z-NAND SZ985 of Table 2
// (3.2/3.0 GB/s, 20/16 µs, 3.2 TB); garbage collection degrades the
// effective write bandwidth by the current write-amplification factor,
// which the interconnect model picks up when migrations are in flight.
//
// To keep full-scale simulations tractable the FTL maps fixed-size units
// ("pages" here) of 1 MB by default rather than 4 KB; the GC and WA
// behaviour depends on the ratio of working set to capacity, not on the
// absolute unit (see DESIGN.md §1).
package ssd

import (
	"fmt"
	"math"

	"g10sim/internal/units"
)

// Config describes the device geometry and calibrated exterior behaviour.
type Config struct {
	// Geometry.
	Channels        int
	ChipsPerChannel int
	PageSize        units.Bytes // FTL mapping unit
	PagesPerBlock   int
	Capacity        units.Bytes // logical (host-visible) capacity
	OverProvision   float64     // extra physical space fraction
	// GCThreshold triggers collection when the free-block fraction of a
	// chip falls below it.
	GCThreshold float64

	// Calibrated exterior behaviour (Table 2).
	ReadBandwidth  units.Bandwidth
	WriteBandwidth units.Bandwidth
	ReadLatency    units.Duration
	WriteLatency   units.Duration

	// Endurance for the §7.7 lifetime model.
	EnduranceDWPD float64
	RatedDays     float64
}

// ZNAND returns the paper's SSD: Samsung SZ985-like Z-NAND, 3.2 TB,
// 3.2/3.0 GB/s, 20/16 µs, rated 30 drive-writes-per-day for five years.
func ZNAND() Config {
	return Config{
		Channels:        8,
		ChipsPerChannel: 4,
		PageSize:        units.MB,
		PagesPerBlock:   64,
		Capacity:        3200 * units.GB,
		OverProvision:   0.07,
		GCThreshold:     0.05,
		ReadBandwidth:   units.GBps(3.2),
		WriteBandwidth:  units.GBps(3.0),
		ReadLatency:     20 * units.Microsecond,
		WriteLatency:    16 * units.Microsecond,
		EnduranceDWPD:   30,
		RatedDays:       1825,
	}
}

// Array returns the configuration of an n-drive array of this device:
// aggregate bandwidth and capacity scale linearly (the §6 sharing model).
// n <= 1 returns the single-drive config unchanged.
func (c Config) Array(n int) Config {
	if n <= 1 {
		return c
	}
	scale := float64(n)
	c.ReadBandwidth = units.Bandwidth(float64(c.ReadBandwidth) * scale)
	c.WriteBandwidth = units.Bandwidth(float64(c.WriteBandwidth) * scale)
	c.Capacity = units.Bytes(float64(c.Capacity) * scale)
	return c
}

func (c Config) withDefaults() Config {
	if c.Channels <= 0 {
		c.Channels = 8
	}
	if c.ChipsPerChannel <= 0 {
		c.ChipsPerChannel = 4
	}
	if c.PageSize <= 0 {
		c.PageSize = units.MB
	}
	if c.PagesPerBlock <= 0 {
		c.PagesPerBlock = 64
	}
	if c.Capacity <= 0 {
		c.Capacity = 3200 * units.GB
	}
	if c.OverProvision <= 0 {
		c.OverProvision = 0.07
	}
	if c.GCThreshold <= 0 {
		c.GCThreshold = 0.05
	}
	if c.EnduranceDWPD <= 0 {
		c.EnduranceDWPD = 30
	}
	if c.RatedDays <= 0 {
		c.RatedDays = 1825
	}
	return c
}

const unmapped = int64(-1)

// LogicalRange is a contiguous run of logical pages assigned to a tensor.
type LogicalRange struct {
	Start, Count int64
}

// Bytes reports the range size given the device page size.
func (r LogicalRange) bytes(pageSize units.Bytes) units.Bytes {
	return units.Bytes(r.Count) * pageSize
}

// Stats aggregates device activity.
type Stats struct {
	HostReadBytes  units.Bytes
	HostWriteBytes units.Bytes
	NANDWriteBytes units.Bytes // host writes + GC relocations
	GCRelocated    int64       // pages moved by GC
	GCRuns         int64
	Erases         int64
}

// chunkBits sizes the lazily-materialised FTL map chunks (entries per
// chunk). 8K entries (32KB chunks) keeps materialisation close to the pages
// actually touched; GC-churned physical regions still amortise the chunk
// header over thousands of entries.
const chunkBits = 13

// pageMap is a chunked page-index map whose untouched chunks read as
// unmapped and cost nothing. Chunking avoids both the O(capacity) zero-fill
// of an eager array and the copy churn of a growing one — the simulator
// touches a few percent of a multi-TB device per run. Entries are int32
// (New bounds the page counts) stored biased by +1, so a freshly
// materialised chunk is plain zeroed memory (no fill loop) yet reads back
// as unmapped.
type pageMap struct {
	chunks [][]int32
}

func newPageMap(size int64) pageMap {
	return pageMap{chunks: make([][]int32, (size+(1<<chunkBits)-1)>>chunkBits)}
}

func (p *pageMap) at(i int64) int64 {
	c := p.chunks[i>>chunkBits]
	if c == nil {
		return unmapped
	}
	return int64(c[i&(1<<chunkBits-1)]) - 1
}

func (p *pageMap) set(i int64, v int64) {
	ci := i >> chunkBits
	c := p.chunks[ci]
	if c == nil {
		c = make([]int32, 1<<chunkBits)
		p.chunks[ci] = c
	}
	c[i&(1<<chunkBits-1)] = int32(v + 1)
}

// Device is one simulated SSD.
//
// FTL state is sized by the pages a run writes, not by the drive: the
// simulator builds one device per run over a multi-TB logical space of
// which a workload touches a few percent. The logical→physical and reverse
// maps are materialised lazily in chunks, and the per-block tables grow as
// the log hands out blocks, so construction allocates O(chips) state plus
// each map's chunk-pointer slice (one pointer per 8K pages).
// Untouched indices read as unmapped and untouched blocks as virgin;
// semantics are identical to fully-allocated arrays. A physical page is
// valid exactly when its reverse entry is mapped: a page is free until
// programmed, and a programmed page becomes invalid (unmapped in reverse)
// when overwritten, trimmed or relocated, so no per-page state is kept.
type Device struct {
	cfg Config

	logicalPages int64
	blocks       int64 // total physical blocks
	chips        int

	mapping pageMap // logical page -> physical page (or unmapped)
	reverse pageMap // physical page -> logical page (or unmapped)

	// validInBlock and onFreeList are indexed by block and cover every
	// block a chip has popped: blocks at or past virginNext[chip] are
	// virgin, with no valid pages and not on a recycled list, so the
	// tables grow only when popFreeBlock hands out a virgin block.
	validInBlock []int32 // valid-page count per block
	// onFreeList marks blocks currently in a recycled list, so GC's victim
	// scan tests membership in O(1) instead of scanning the list per block.
	onFreeList  []bool
	writePtr    []int64 // per chip: next physical page in its active block
	activeBlock []int64 // per chip: current log block (-1 = none)
	// The per-chip free-block list is [remaining virgin blocks in block-
	// number order] ++ [GC-recycled blocks FIFO]. Virgin blocks of chip c
	// are the arithmetic sequence c, c+chips, c+2·chips, …, represented by
	// the next unpopped element instead of a materialised slice.
	virginNext []int64   // per chip: next never-used block, ≥ blocks when exhausted
	recycled   [][]int64 // per chip: erased blocks, pop from the front
	nextChip   int

	allocCursor int64
	freeList    []LogicalRange
	// allocated counts the logical pages Alloc has handed out and Free not
	// yet taken back (the free list never coalesces, so it is not summed).
	allocated int64

	// deadChips counts flash dies lost to injected failures. The failure
	// model is exterior — calibrated behaviour, not FTL surgery: the array
	// is assumed to rebuild dead dies' data from internal redundancy, so no
	// mapping is lost, but the alive fraction scales both effective
	// bandwidths and caps how far Alloc may extend the logical tail.
	deadChips int
	// staleReverse is the planted FTL fault of InjectStaleReverse.
	staleReverse bool

	stats Stats
	// effWrite caches EffectiveWriteBandwidth between writes: the GPU layer
	// re-derives the shared ssd-write channel after every device write, and
	// in the common no-GC case the write-amplification ratio — and with it
	// the sustained bandwidth — is unchanged since last time.
	effWrite   units.Bandwidth
	effWriteOK bool
}

// New builds a device. Geometry must divide evenly; use ZNAND() or the test
// helpers for consistent configs. A geometry with more than math.MaxInt32
// physical pages is rejected: the FTL maps store 32-bit page indices.
func New(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	logicalPages := int64(cfg.Capacity / cfg.PageSize)
	physPages := int64(float64(logicalPages) * (1 + cfg.OverProvision))
	chips := cfg.Channels * cfg.ChipsPerChannel
	blocks := physPages / int64(cfg.PagesPerBlock)
	// Round blocks up to a multiple of chips (slightly increasing the
	// overprovision) so striping stays uniform without eating the spare
	// space on small devices.
	if rem := blocks % int64(chips); rem != 0 {
		blocks += int64(chips) - rem
	}
	if blocks < int64(2*chips) {
		return nil, fmt.Errorf("ssd: capacity too small for geometry (%d blocks, %d chips)", blocks, chips)
	}
	if blocks > math.MaxInt32/int64(cfg.PagesPerBlock) {
		return nil, fmt.Errorf("ssd: capacity too large for the FTL (%d blocks of %d pages exceed %d physical pages)", blocks, cfg.PagesPerBlock, math.MaxInt32)
	}
	physPages = blocks * int64(cfg.PagesPerBlock)
	if physPages <= logicalPages {
		return nil, fmt.Errorf("ssd: physical pages (%d) not above logical (%d); raise OverProvision", physPages, logicalPages)
	}

	d := &Device{
		cfg:          cfg,
		logicalPages: logicalPages,
		blocks:       blocks,
		chips:        chips,
		mapping:      newPageMap(logicalPages),
		reverse:      newPageMap(physPages),
		writePtr:     make([]int64, chips),
		activeBlock:  make([]int64, chips),
		virginNext:   make([]int64, chips),
		recycled:     make([][]int64, chips),
	}
	for c := 0; c < chips; c++ {
		d.activeBlock[c] = -1
		d.virginNext[c] = int64(c)
	}
	return d, nil
}

// freeBlockCount reports how many free blocks chip has.
func (d *Device) freeBlockCount(chip int) int64 {
	var virgin int64
	if d.virginNext[chip] < d.blocks {
		virgin = (d.blocks-1-d.virginNext[chip])/int64(d.chips) + 1
	}
	return virgin + int64(len(d.recycled[chip]))
}

// popFreeBlock removes and returns the chip's next free block: remaining
// virgin blocks first (in block order), then recycled blocks FIFO. Returns
// -1 when none are free.
func (d *Device) popFreeBlock(chip int) int64 {
	if b := d.virginNext[chip]; b < d.blocks {
		d.virginNext[chip] += int64(d.chips)
		for int64(len(d.validInBlock)) <= b {
			d.validInBlock = append(d.validInBlock, 0)
			d.onFreeList = append(d.onFreeList, false)
		}
		return b
	}
	if rs := d.recycled[chip]; len(rs) > 0 {
		b := rs[0]
		d.recycled[chip] = rs[1:]
		d.onFreeList[b] = false
		return b
	}
	return -1
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration (with defaults applied).
func (d *Device) Config() Config { return d.cfg }

// PageSize reports the FTL mapping unit.
func (d *Device) PageSize() units.Bytes { return d.cfg.PageSize }

// PagesFor reports how many device pages hold n bytes.
func (d *Device) PagesFor(n units.Bytes) int64 { return units.PagesFor(n, d.cfg.PageSize) }

// Alloc reserves a contiguous logical range of n pages.
func (d *Device) Alloc(n int64) (LogicalRange, error) {
	if n <= 0 {
		return LogicalRange{}, fmt.Errorf("ssd: alloc of %d pages", n)
	}
	// First fit from the free list.
	for i, r := range d.freeList {
		if r.Count >= n {
			out := LogicalRange{Start: r.Start, Count: n}
			if r.Count == n {
				d.freeList = append(d.freeList[:i], d.freeList[i+1:]...)
			} else {
				d.freeList[i] = LogicalRange{Start: r.Start + n, Count: r.Count - n}
			}
			d.allocated += n
			return out, nil
		}
	}
	if limit := d.allocLimit(); d.allocCursor+n > limit {
		return LogicalRange{}, outOfSpaceError{requested: n, free: limit - d.allocCursor}
	}
	out := LogicalRange{Start: d.allocCursor, Count: n}
	d.allocCursor += n
	d.allocated += n
	return out, nil
}

// outOfSpaceError is Alloc's out-of-space failure. Its message is built
// only when read: callers in an allocation storm discard most of them.
type outOfSpaceError struct{ requested, free int64 }

func (e outOfSpaceError) Error() string {
	return fmt.Sprintf("ssd: out of logical space (%d pages requested, %d free at tail)", e.requested, e.free)
}

// Free releases a logical range (TRIM): mapped pages are invalidated.
func (d *Device) Free(r LogicalRange) {
	for lp := r.Start; lp < r.Start+r.Count; lp++ {
		if pp := d.mapping.at(lp); pp != unmapped {
			d.invalidate(pp)
			d.mapping.set(lp, unmapped)
		}
	}
	d.freeList = append(d.freeList, r)
	d.allocated -= r.Count
}

// AllocatedPages reports the logical pages allocated and not yet freed.
func (d *Device) AllocatedPages() int64 { return d.allocated }

// LogicalPages reports the device's logical capacity in pages.
func (d *Device) LogicalPages() int64 { return d.logicalPages }

// invalidate retires the valid physical page pp that a logical page maps
// to (callers hold the mapping, so pp is valid).
func (d *Device) invalidate(pp int64) {
	d.validInBlock[pp/int64(d.cfg.PagesPerBlock)]--
	if !d.staleReverse {
		d.reverse.set(pp, unmapped)
	}
}

// InjectStaleReverse plants an FTL fault for mutation tests: every later
// invalidation leaves its page's reverse entry mapped, so the device keeps
// a retired page as valid. Host-visible behaviour is unchanged until GC
// relocates such a page; CheckConsistency reports the fault.
func (d *Device) InjectStaleReverse() { d.staleReverse = true }

// Write programs every page of the range (a tensor eviction). Previously
// mapped pages are invalidated, new pages are appended log-structured, and
// GC runs when a chip exhausts its free blocks. Returns the number of pages
// GC relocated as a side effect (the caller charges that work to the
// device's internal bandwidth).
func (d *Device) Write(r LogicalRange) (gcRelocated int64, err error) {
	// Invalidate up front: even a failing write may already have programmed
	// pages and run GC, moving the write-amplification ratio.
	d.effWriteOK = false
	before := d.stats.GCRelocated
	for lp := r.Start; lp < r.Start+r.Count; lp++ {
		if lp < 0 || lp >= d.logicalPages {
			return 0, fmt.Errorf("ssd: write beyond logical space at page %d", lp)
		}
		if pp := d.mapping.at(lp); pp != unmapped {
			d.invalidate(pp)
		}
		pp, werr := d.program(lp)
		if werr != nil {
			return d.stats.GCRelocated - before, werr
		}
		d.mapping.set(lp, pp)
	}
	d.stats.HostWriteBytes += r.bytes(d.cfg.PageSize)
	d.stats.NANDWriteBytes += r.bytes(d.cfg.PageSize)
	return d.stats.GCRelocated - before, nil
}

// Read verifies the range is mapped and accounts the traffic.
func (d *Device) Read(r LogicalRange) error {
	for lp := r.Start; lp < r.Start+r.Count; lp++ {
		if lp < 0 || lp >= d.logicalPages || d.mapping.at(lp) == unmapped {
			return fmt.Errorf("ssd: read of unmapped logical page %d", lp)
		}
	}
	d.stats.HostReadBytes += r.bytes(d.cfg.PageSize)
	return nil
}

// program appends one page for logical page lp on the next chip
// (round-robin striping), running GC if the chip is out of blocks.
func (d *Device) program(lp int64) (int64, error) {
	chip := d.nextChip
	if d.nextChip++; d.nextChip == d.chips {
		d.nextChip = 0
	}
	pp, err := d.appendOnChip(chip)
	if err != nil {
		return 0, err
	}
	d.reverse.set(pp, lp)
	d.validInBlock[d.activeBlock[chip]]++
	return pp, nil
}

func (d *Device) appendOnChip(chip int) (int64, error) {
	ppb := int64(d.cfg.PagesPerBlock)
	if d.activeBlock[chip] >= 0 && d.writePtr[chip] < (d.activeBlock[chip]+1)*ppb {
		pp := d.writePtr[chip]
		d.writePtr[chip]++
		return pp, nil
	}
	// Need a fresh block; collect if the chip is low. The pop below replaces
	// the active block even when collect's relocations left a partly
	// filled one there, whose tail then stays unwritten until it is erased.
	if d.lowOnBlocks(chip) {
		if err := d.collect(chip); err != nil {
			return 0, err
		}
	}
	b := d.popFreeBlock(chip)
	if b < 0 {
		return 0, fmt.Errorf("ssd: chip %d out of blocks after GC", chip)
	}
	d.activeBlock[chip] = b
	d.writePtr[chip] = b * ppb
	pp := d.writePtr[chip]
	d.writePtr[chip]++
	return pp, nil
}

func (d *Device) lowOnBlocks(chip int) bool {
	perChip := d.blocks / int64(d.chips)
	return float64(d.freeBlockCount(chip)) < d.cfg.GCThreshold*float64(perChip)+1
}

// collect performs greedy GC on one chip: pick the sealed block with the
// fewest valid pages, relocate them, erase.
func (d *Device) collect(chip int) error {
	ppb := int64(d.cfg.PagesPerBlock)
	d.stats.GCRuns++
	for d.lowOnBlocks(chip) {
		victim := int64(-1)
		best := int32(d.cfg.PagesPerBlock) + 1
		// Blocks at or past virginNext[chip] are virgin, hence free.
		for b := int64(chip); b < d.virginNext[chip]; b += int64(d.chips) {
			if b == d.activeBlock[chip] || d.onFreeList[b] {
				continue
			}
			if d.validInBlock[b] < best {
				best = d.validInBlock[b]
				victim = b
			}
		}
		if victim < 0 {
			return fmt.Errorf("ssd: chip %d has no GC victim", chip)
		}
		if best == int32(d.cfg.PagesPerBlock) {
			return fmt.Errorf("ssd: chip %d full of valid data (logical overcommit)", chip)
		}
		// Relocate valid pages into the chip's active block stream.
		for pp := victim * ppb; pp < (victim+1)*ppb; pp++ {
			lp := d.reverse.at(pp)
			if lp == unmapped {
				continue
			}
			d.validInBlock[victim]--
			d.reverse.set(pp, unmapped)

			np, err := d.appendOnChipForGC(chip, victim)
			if err != nil {
				return err
			}
			d.reverse.set(np, lp)
			d.validInBlock[d.activeBlock[chip]]++
			d.mapping.set(lp, np)
			d.stats.GCRelocated++
			d.stats.NANDWriteBytes += d.cfg.PageSize
		}
		// Erase the victim: relocation left none of its pages valid.
		d.stats.Erases++
		d.recycled[chip] = append(d.recycled[chip], victim)
		d.onFreeList[victim] = true
	}
	return nil
}

// appendOnChipForGC appends without re-entering GC (the erased victim is
// about to come back to the free list).
func (d *Device) appendOnChipForGC(chip int, victim int64) (int64, error) {
	ppb := int64(d.cfg.PagesPerBlock)
	if d.activeBlock[chip] >= 0 && d.writePtr[chip] < (d.activeBlock[chip]+1)*ppb {
		pp := d.writePtr[chip]
		d.writePtr[chip]++
		return pp, nil
	}
	b := d.popFreeBlock(chip)
	if b < 0 {
		return 0, fmt.Errorf("ssd: chip %d deadlocked during GC of block %d", chip, victim)
	}
	d.activeBlock[chip] = b
	d.writePtr[chip] = b * ppb
	pp := d.writePtr[chip]
	d.writePtr[chip]++
	return pp, nil
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// WriteAmplification reports NAND writes divided by host writes (>= 1).
func (d *Device) WriteAmplification() float64 {
	if d.stats.HostWriteBytes == 0 {
		return 1
	}
	return float64(d.stats.NANDWriteBytes) / float64(d.stats.HostWriteBytes)
}

// EffectiveWriteBandwidth is the sustained host write bandwidth after GC
// steals its share: rated bandwidth divided by write amplification. The
// value is cached between writes (every dev.Write invalidates it), so the
// per-chunk refresh in the GPU layer costs a flag test when nothing wrote.
func (d *Device) EffectiveWriteBandwidth() units.Bandwidth {
	if !d.effWriteOK {
		d.effWrite = units.Bandwidth(float64(d.cfg.WriteBandwidth) / d.WriteAmplification() * d.aliveFraction())
		d.effWriteOK = true
	}
	return d.effWrite
}

// EffectiveReadBandwidth is the rated read bandwidth (GC reads are folded
// into the write path's amplification charge), scaled by the surviving die
// fraction after injected failures.
func (d *Device) EffectiveReadBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(d.cfg.ReadBandwidth) * d.aliveFraction())
}

// FailDies marks n flash dies failed, clamped so at least one die survives.
// Reports how many dies actually failed. Capacity and bandwidth shrink by
// the dead fraction (see the deadChips field for the model's scope); data
// already written stays readable.
func (d *Device) FailDies(n int) int {
	if lim := d.chips - 1 - d.deadChips; n > lim {
		n = lim
	}
	if n <= 0 {
		return 0
	}
	d.deadChips += n
	d.effWriteOK = false
	return n
}

// DeadChips reports how many dies FailDies has removed.
func (d *Device) DeadChips() int { return d.deadChips }

// aliveFraction is the surviving share of the array's dies (exactly 1.0
// with no failures, so the fault-free fast paths are bit-unchanged).
func (d *Device) aliveFraction() float64 {
	if d.deadChips == 0 {
		return 1
	}
	return float64(d.chips-d.deadChips) / float64(d.chips)
}

// allocLimit is the logical tail bound: dead dies shrink the space Alloc
// may extend into (ranges already allocated, and the free list, are kept).
func (d *Device) allocLimit() int64 {
	if d.deadChips == 0 {
		return d.logicalPages
	}
	return d.logicalPages - int64(float64(d.logicalPages)*float64(d.deadChips)/float64(d.chips))
}

// LifetimeYears implements §7.7: endurance bytes (DWPD × capacity × rated
// days) divided by a continuous write rate.
func (c Config) LifetimeYears(writeRate units.Bandwidth) float64 {
	c = c.withDefaults()
	if writeRate <= 0 {
		return 0
	}
	enduranceBytes := c.EnduranceDWPD * float64(c.Capacity) * c.RatedDays
	seconds := enduranceBytes / float64(writeRate)
	return seconds / (365.25 * 24 * 3600)
}

// FreePhysicalPages reports the physical pages the log can still program
// before GC must erase (for tests): the pages of free blocks (virgin or
// recycled) plus the unwritten tail of each chip's active block. It omits
// the unwritten tail of a GC destination block that a host write replaced
// before it filled (see appendOnChip); nothing programs those pages until
// the block is erased.
func (d *Device) FreePhysicalPages() int64 {
	ppb := int64(d.cfg.PagesPerBlock)
	var n int64
	for c := 0; c < d.chips; c++ {
		n += d.freeBlockCount(c) * ppb
		if b := d.activeBlock[c]; b >= 0 {
			n += (b+1)*ppb - d.writePtr[c]
		}
	}
	return n
}

// CheckConsistency validates FTL invariants: every valid physical page
// (mapped in reverse) lies in a written part of a block in use and is what
// its logical page maps to, every mapped logical page points at a physical
// page that points back, and per-block valid counts match a recount.
func (d *Device) CheckConsistency() error {
	ppb := int64(d.cfg.PagesPerBlock)
	counts := make([]int32, len(d.validInBlock))
	for ci, c := range d.reverse.chunks {
		base := int64(ci) << chunkBits
		for j := range c {
			pp := base + int64(j)
			lp := d.reverse.at(pp)
			if lp == unmapped {
				continue
			}
			b := pp / ppb
			chip := int(b % int64(d.chips))
			if b >= d.virginNext[chip] || d.onFreeList[b] {
				return fmt.Errorf("ssd: valid page %d lies in free block %d", pp, b)
			}
			if b == d.activeBlock[chip] && pp >= d.writePtr[chip] {
				return fmt.Errorf("ssd: valid page %d lies past chip %d's write pointer %d", pp, chip, d.writePtr[chip])
			}
			counts[b]++
			if got := d.mapping.at(lp); got != pp {
				return fmt.Errorf("ssd: page %d reverse-maps to %d whose mapping is %d", pp, lp, got)
			}
		}
	}
	for b, n := range counts {
		if n != d.validInBlock[b] {
			return fmt.Errorf("ssd: block %d valid count %d, recount %d", b, d.validInBlock[b], n)
		}
	}
	for ci, c := range d.mapping.chunks {
		base := int64(ci) << chunkBits
		for j := range c {
			lp := base + int64(j)
			if pp := d.mapping.at(lp); pp != unmapped && d.reverse.at(pp) != lp {
				return fmt.Errorf("ssd: logical %d maps to physical %d, which reverse-maps to %d", lp, pp, d.reverse.at(pp))
			}
		}
	}
	return nil
}
