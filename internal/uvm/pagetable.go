// Package uvm implements the paper's extended Unified Virtual Memory
// (§4.5–§4.6): a unified page table whose leaf entries point into GPU
// memory, host memory, or flash; a GPU-side TLB; and the migration metadata
// queues plus arbiter that batch tensor migrations into transfer sets
// (Figure 10).
//
// The page table stores translations as contiguous extents: runs of pages
// that are virtually contiguous, live in the same location, and map to
// consecutive device addresses. A whole-tensor migration (MapRange /
// UnmapRange, the fast path of Figure 10 step 5) updates one run in
// O(log n) instead of walking a radix tree once per page; single-page
// operations split and merge runs so the translation semantics are
// identical at any granularity (see DESIGN.md §2).
package uvm

import (
	"fmt"
	"sort"

	"g10sim/internal/units"
)

// Location identifies which memory a page currently lives in — the paper's
// extension is precisely that a PTE may name a flash address (§4.5).
type Location int

const (
	// Unmapped marks an absent translation (page fault on access).
	Unmapped Location = iota
	// InGPU is on-board HBM.
	InGPU
	// InHost is CPU DRAM.
	InHost
	// InFlash is the SSD (the G10 extension).
	InFlash
)

func (l Location) String() string {
	switch l {
	case Unmapped:
		return "unmapped"
	case InGPU:
		return "gpu"
	case InHost:
		return "host"
	case InFlash:
		return "flash"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// PTE is a leaf page-table entry: where the page is and the device-local
// frame/page number there.
type PTE struct {
	Loc  Location
	Addr uint64
}

// walkLevels mirrors the 4-level radix walk of a 48-bit VA space with 9-bit
// levels; the fault-latency model charges one memory access per level.
const walkLevels = 4

// extent is a run of pages contiguous in all three senses: virtual page
// number, location, and device address (page i of the run lives at
// addr + i). Runs never overlap and are kept sorted by vpn.
type extent struct {
	vpn   uint64
	pages int64
	loc   Location
	addr  uint64
}

func (e extent) end() uint64 { return e.vpn + uint64(e.pages) }

// PageTable is the unified (host-side) page table. GPU-local tables and
// TLBs are kept coherent by the UVM runtime; this simulator models that
// coherence cost via TLB invalidations on update.
type PageTable struct {
	pageBits uint
	pageSize units.Bytes
	runs     []extent
	mapped   int64
	// tombs counts tombstone runs (loc == Unmapped): extents an UnmapRange
	// cleared in place instead of splicing out, kept for O(1) reuse when
	// the same span is remapped (the migration commit pattern). Translate
	// and friends treat them as absent; compact() sweeps them once they
	// outnumber live runs.
	tombs int
	// WalkLevels is the number of memory accesses one translation costs —
	// used by the fault-latency model.
	WalkLevels int
}

// NewPageTable builds an empty table for the given page size (a power of
// two, e.g. 4KB per Table 2).
func NewPageTable(pageSize units.Bytes) (*PageTable, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("uvm: page size %d not a positive power of two", pageSize)
	}
	bits := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		bits++
	}
	return &PageTable{pageBits: bits, pageSize: pageSize, WalkLevels: walkLevels}, nil
}

// MustNewPageTable panics on config error.
func MustNewPageTable(pageSize units.Bytes) *PageTable {
	pt, err := NewPageTable(pageSize)
	if err != nil {
		panic(err)
	}
	return pt
}

// PageSize reports the translation granularity.
func (pt *PageTable) PageSize() units.Bytes { return pt.pageSize }

// Mapped reports how many pages currently have translations.
func (pt *PageTable) Mapped() int64 { return pt.mapped }

// Runs reports how many contiguous extents the table currently holds (a
// fragmentation measure; one long-lived tensor should stay one run). The
// count includes tombstones awaiting reuse or compaction.
func (pt *PageTable) Runs() int { return len(pt.runs) }

// vpn converts a virtual address to its virtual page number.
func (pt *PageTable) vpn(va uint64) uint64 { return va >> pt.pageBits }

// findRun returns the index of the live run containing vpn, or -1 (a
// tombstone covering vpn is an absent translation).
func (pt *PageTable) findRun(vpn uint64) int {
	i := sort.Search(len(pt.runs), func(i int) bool { return pt.runs[i].end() > vpn })
	if i < len(pt.runs) && pt.runs[i].vpn <= vpn && pt.runs[i].loc != Unmapped {
		return i
	}
	return -1
}

// Map installs (or replaces) the translation for the page containing va.
func (pt *PageTable) Map(va uint64, pte PTE) {
	pt.mapRun(pt.vpn(va), 1, pte.Loc, pte.Addr)
}

// Translate walks the table for va. ok is false on a missing translation
// (page fault).
func (pt *PageTable) Translate(va uint64) (PTE, bool) {
	vpn := pt.vpn(va)
	i := pt.findRun(vpn)
	if i < 0 {
		return PTE{}, false
	}
	r := &pt.runs[i]
	return PTE{Loc: r.loc, Addr: r.addr + (vpn - r.vpn)}, true
}

// Unmap removes the translation for the page containing va, reporting
// whether one existed.
func (pt *PageTable) Unmap(va uint64) bool {
	return pt.clearRange(pt.vpn(va), 1, true) > 0
}

// MapRange maps pages contiguous virtual pages starting at va to
// consecutive device addresses starting at startAddr in loc, returning how
// many of them were mapped before. This is how a whole-tensor migration
// updates the table (step 5 of Figure 10): one ordered-structure edit
// regardless of the tensor's page count.
func (pt *PageTable) MapRange(va uint64, pages int64, loc Location, startAddr uint64) int64 {
	if pages <= 0 {
		return 0
	}
	before := pt.mapped
	pt.mapRun(pt.vpn(va), pages, loc, startAddr)
	return pages - (pt.mapped - before)
}

// UnmapRange unmaps a contiguous run of pages, returning how many were
// mapped.
func (pt *PageTable) UnmapRange(va uint64, pages int64) int64 {
	if pages <= 0 {
		return 0
	}
	return pt.clearRange(pt.vpn(va), pages, true)
}

// RangeLocation reports the location of a contiguous range if uniform;
// mixed or partially unmapped ranges report ok=false.
func (pt *PageTable) RangeLocation(va uint64, pages int64) (Location, bool) {
	if pages <= 0 {
		return Unmapped, false
	}
	vpn := pt.vpn(va)
	end := vpn + uint64(pages)
	i := pt.findRun(vpn)
	if i < 0 {
		return Unmapped, false
	}
	loc := pt.runs[i].loc
	// Walk forward: runs must tile [vpn, end) without gaps, all in loc.
	// (Device-address continuity across runs is not required — the per-page
	// reference model only compares locations.)
	pos := pt.runs[i].end()
	for pos < end {
		i++
		if i >= len(pt.runs) || pt.runs[i].vpn != pos || pt.runs[i].loc != loc {
			return Unmapped, false
		}
		pos = pt.runs[i].end()
	}
	return loc, true
}

// mapRun installs [vpn, vpn+pages) -> (loc, addr..), replacing whatever was
// there, then merges with adjacent runs when both the location and the
// device addresses continue across the seam — so a tensor remapped in
// chunks coalesces back into a single extent.
func (pt *PageTable) mapRun(vpn uint64, pages int64, loc Location, addr uint64) {
	if loc == Unmapped {
		// Mapping to Unmapped is an unmap.
		pt.clearRange(vpn, pages, true)
		return
	}
	end := vpn + uint64(pages)
	// Fast path: migrations rewrite a tensor's fixed span over and over.
	// When one run — live or tombstone — covers exactly [vpn, end) and no
	// seam merge would fire, only loc/addr change: no clear, no splice.
	if i := sort.Search(len(pt.runs), func(i int) bool { return pt.runs[i].vpn >= vpn }); i < len(pt.runs) {
		if r := &pt.runs[i]; r.vpn == vpn && r.pages == pages {
			leftMerge := false
			if i > 0 {
				l := &pt.runs[i-1]
				leftMerge = l.loc == loc && l.end() == vpn && l.addr+uint64(l.pages) == addr
			}
			rightMerge := false
			if i+1 < len(pt.runs) {
				rr := &pt.runs[i+1]
				rightMerge = rr.loc == loc && rr.vpn == end && addr+uint64(pages) == rr.addr
			}
			if !leftMerge && !rightMerge {
				if r.loc == Unmapped {
					pt.tombs--
					pt.mapped += pages
				}
				r.loc = loc
				r.addr = addr
				return
			}
		}
	}
	pt.clearRange(vpn, pages, false)
	n := extent{vpn: vpn, pages: pages, loc: loc, addr: addr}
	i := sort.Search(len(pt.runs), func(i int) bool { return pt.runs[i].vpn > vpn })
	// Try merging with the left neighbor.
	if i > 0 {
		l := &pt.runs[i-1]
		if l.end() == n.vpn && l.loc == n.loc && l.addr+uint64(l.pages) == n.addr {
			l.pages += n.pages
			// And across to the right neighbor.
			if i < len(pt.runs) {
				r := pt.runs[i]
				if l.end() == r.vpn && l.loc == r.loc && l.addr+uint64(l.pages) == r.addr {
					l.pages += r.pages
					pt.runs = append(pt.runs[:i], pt.runs[i+1:]...)
				}
			}
			pt.mapped += pages
			return
		}
	}
	// Try merging with the right neighbor.
	if i < len(pt.runs) {
		r := &pt.runs[i]
		if n.end() == r.vpn && n.loc == r.loc && n.addr+uint64(n.pages) == r.addr {
			r.vpn = n.vpn
			r.pages += n.pages
			r.addr = n.addr
			pt.mapped += pages
			return
		}
	}
	pt.runs = append(pt.runs, extent{})
	copy(pt.runs[i+1:], pt.runs[i:])
	pt.runs[i] = n
	pt.mapped += pages
}

// clearRange removes all translations in [vpn, vpn+pages), splitting
// partially covered runs, and returns how many pages were mapped. With
// keepTombs, fully covered runs become tombstones in place and partially
// covered ones trim in place — no splice except the rare middle split —
// so an UnmapRange costs O(log runs + runs overlapped), not O(runs).
// Without keepTombs (the mapRun slow path, which must leave the span
// empty for its insert), covered runs splice out as before.
func (pt *PageTable) clearRange(vpn uint64, pages int64, keepTombs bool) int64 {
	end := vpn + uint64(pages)
	// First run that extends past vpn.
	i := sort.Search(len(pt.runs), func(i int) bool { return pt.runs[i].end() > vpn })
	if i >= len(pt.runs) || pt.runs[i].vpn >= end {
		return 0
	}
	if keepTombs {
		var removed int64
		for j := i; j < len(pt.runs) && pt.runs[j].vpn < end; j++ {
			r := &pt.runs[j]
			if r.loc == Unmapped {
				continue // already unmapped everywhere it covers
			}
			lo, hi := r.vpn, r.end()
			switch {
			case lo >= vpn && hi <= end: // fully covered: tombstone in place
				removed += r.pages
				r.loc = Unmapped
				pt.tombs++
			case lo < vpn && hi > end: // middle split: trim left, splice right in
				right := extent{vpn: end, pages: int64(hi - end), loc: r.loc, addr: r.addr + (end - lo)}
				removed += pages
				r.pages = int64(vpn - lo)
				pt.runs = append(pt.runs, extent{})
				copy(pt.runs[j+2:], pt.runs[j+1:])
				pt.runs[j+1] = right
				pt.mapped -= removed
				return removed // the only run that can overlap
			case lo < vpn: // tail covered: trim in place
				removed += int64(hi - vpn)
				r.pages = int64(vpn - lo)
			default: // head covered: trim in place (stays sorted: vpn grows)
				removed += int64(end - lo)
				r.addr += end - lo
				r.vpn = end
				r.pages = int64(hi - end)
			}
		}
		pt.mapped -= removed
		if pt.tombs > 8 && pt.tombs*2 > len(pt.runs) {
			pt.compact()
		}
		return removed
	}
	var removed int64
	var keep [2]extent // partial remainders at the seam(s)
	nkeep := 0
	j := i
	for j < len(pt.runs) && pt.runs[j].vpn < end {
		r := pt.runs[j]
		lo, hi := r.vpn, r.end()
		if r.loc == Unmapped {
			pt.tombs--
			// Remainders outside the cleared span stay tombstones.
			if lo < vpn {
				keep[nkeep] = extent{vpn: lo, pages: int64(vpn - lo)}
				nkeep++
				pt.tombs++
			}
			if hi > end {
				keep[nkeep] = extent{vpn: end, pages: int64(hi - end)}
				nkeep++
				pt.tombs++
			}
			j++
			continue
		}
		if lo < vpn {
			keep[nkeep] = extent{vpn: lo, pages: int64(vpn - lo), loc: r.loc, addr: r.addr}
			nkeep++
			lo = vpn
		}
		if hi > end {
			keep[nkeep] = extent{vpn: end, pages: int64(hi - end), loc: r.loc, addr: r.addr + (end - r.vpn)}
			nkeep++
			hi = end
		}
		removed += int64(hi - lo)
		j++
	}
	if delta := nkeep - (j - i); delta <= 0 {
		copy(pt.runs[i:], keep[:nkeep])
		copy(pt.runs[i+nkeep:], pt.runs[j:])
		pt.runs = pt.runs[:len(pt.runs)+delta]
	} else {
		// Only a middle split grows the slice: one run became two.
		pt.runs = append(pt.runs, extent{})
		copy(pt.runs[i+2:], pt.runs[i+1:])
		pt.runs[i] = keep[0]
		pt.runs[i+1] = keep[1]
	}
	pt.mapped -= removed
	return removed
}

// compact splices out every tombstone in one sweep, restoring run-count
// proportionality to live extents. Amortized free: each tombstone was
// created by an O(1) in-place clear, and the sweep runs only once they
// outnumber live runs.
func (pt *PageTable) compact() {
	out := pt.runs[:0]
	for _, r := range pt.runs {
		if r.loc != Unmapped {
			out = append(out, r)
		}
	}
	pt.runs = out
	pt.tombs = 0
}
