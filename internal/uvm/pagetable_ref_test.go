package uvm

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// refTable is a trivially correct per-page reference model of the page
// table: one map entry per mapped page.
type refTable struct {
	pageSize units.Bytes
	m        map[uint64]PTE
}

func newRefTable(pageSize units.Bytes) *refTable {
	return &refTable{pageSize: pageSize, m: map[uint64]PTE{}}
}

func (r *refTable) vpn(va uint64) uint64 { return va / uint64(r.pageSize) }

func (r *refTable) mapRange(va uint64, pages int64, loc Location, addr uint64) int64 {
	var n int64
	for i := int64(0); i < pages; i++ {
		if _, ok := r.m[r.vpn(va)+uint64(i)]; ok {
			n++
		}
		r.m[r.vpn(va)+uint64(i)] = PTE{Loc: loc, Addr: addr + uint64(i)}
	}
	return n
}

func (r *refTable) unmapRange(va uint64, pages int64) int64 {
	var n int64
	for i := int64(0); i < pages; i++ {
		if _, ok := r.m[r.vpn(va)+uint64(i)]; ok {
			delete(r.m, r.vpn(va)+uint64(i))
			n++
		}
	}
	return n
}

func (r *refTable) translate(va uint64) (PTE, bool) {
	pte, ok := r.m[r.vpn(va)]
	return pte, ok
}

func (r *refTable) rangeLocation(va uint64, pages int64) (Location, bool) {
	if pages <= 0 {
		return Unmapped, false
	}
	first, ok := r.translate(va)
	if !ok {
		return Unmapped, false
	}
	for i := int64(1); i < pages; i++ {
		pte, ok := r.m[r.vpn(va)+uint64(i)]
		if !ok || pte.Loc != first.Loc {
			return Unmapped, false
		}
	}
	return first.Loc, true
}

// TestPageTableDifferential drives random operation sequences through the
// extent-based table and the per-page reference model, comparing every
// observable result: operation return values, Mapped counts, and full-space
// translations.
func TestPageTableDifferential(t *testing.T) {
	const pageSize = 4 * units.KB
	locs := []Location{InGPU, InHost, InFlash}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		pt := MustNewPageTable(pageSize)
		ref := newRefTable(pageSize)
		const vpnSpace = 2048 // small space so ranges overlap frequently
		for op := 0; op < 400; op++ {
			vpn := uint64(rng.Intn(vpnSpace))
			va := vpn * uint64(pageSize)
			pages := int64(rng.Intn(64) + 1)
			switch rng.Intn(6) {
			case 0: // single-page Map
				pte := PTE{Loc: locs[rng.Intn(3)], Addr: uint64(rng.Intn(1 << 20))}
				pt.Map(va, pte)
				ref.m[vpn] = pte
			case 1: // MapRange
				loc := locs[rng.Intn(3)]
				addr := uint64(rng.Intn(1 << 20))
				got := pt.MapRange(va, pages, loc, addr)
				want := ref.mapRange(va, pages, loc, addr)
				if got != want {
					t.Fatalf("trial %d op %d: MapRange(%#x, %d) = %d, ref %d", trial, op, va, pages, got, want)
				}
			case 2: // single-page Unmap
				got := pt.Unmap(va)
				want := ref.unmapRange(va, 1) == 1
				if got != want {
					t.Fatalf("trial %d op %d: Unmap(%#x) = %v, ref %v", trial, op, va, got, want)
				}
			case 3: // UnmapRange
				got := pt.UnmapRange(va, pages)
				want := ref.unmapRange(va, pages)
				if got != want {
					t.Fatalf("trial %d op %d: UnmapRange(%#x, %d) = %d, ref %d", trial, op, va, pages, got, want)
				}
			case 4: // RangeLocation
				gl, gok := pt.RangeLocation(va, pages)
				wl, wok := ref.rangeLocation(va, pages)
				if gok != wok || (gok && gl != wl) {
					t.Fatalf("trial %d op %d: RangeLocation(%#x, %d) = %v/%v, ref %v/%v",
						trial, op, va, pages, gl, gok, wl, wok)
				}
			case 5: // Translate probe
				gp, gok := pt.Translate(va)
				wp, wok := ref.translate(va)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("trial %d op %d: Translate(%#x) = %+v/%v, ref %+v/%v",
						trial, op, va, gp, gok, wp, wok)
				}
			}
			if pt.Mapped() != int64(len(ref.m)) {
				t.Fatalf("trial %d op %d: Mapped = %d, ref %d", trial, op, pt.Mapped(), len(ref.m))
			}
		}
		// Full sweep: every page of the space must agree.
		for vpn := uint64(0); vpn < vpnSpace+64; vpn++ {
			va := vpn * uint64(pageSize)
			gp, gok := pt.Translate(va)
			wp, wok := ref.translate(va)
			if gok != wok || (gok && gp != wp) {
				t.Fatalf("trial %d sweep vpn %d: %+v/%v, ref %+v/%v", trial, vpn, gp, gok, wp, wok)
			}
		}
	}
}

// TestPageTableRunMerging checks the extent structure's coalescing: a
// tensor mapped chunk by chunk with contiguous device addresses collapses
// into one run, so long-lived tensors do not fragment the table.
func TestPageTableRunMerging(t *testing.T) {
	pt := MustNewPageTable(4 * units.KB)
	// Map 16 chunks of 8 pages each, address-contiguous, in scrambled order.
	order := []int{3, 0, 7, 1, 12, 5, 2, 15, 9, 4, 6, 8, 10, 13, 11, 14}
	for _, c := range order {
		pt.MapRange(uint64(c)*8*4096, 8, InGPU, uint64(c)*8)
	}
	if pt.Runs() != 1 {
		t.Errorf("address-contiguous chunked mapping left %d runs, want 1", pt.Runs())
	}
	if pt.Mapped() != 128 {
		t.Errorf("Mapped = %d, want 128", pt.Mapped())
	}
	// Re-mapping the middle to a different location splits ...
	pt.MapRange(5*8*4096, 8, InFlash, 7777)
	if loc, ok := pt.RangeLocation(5*8*4096, 8); !ok || loc != InFlash {
		t.Fatalf("migrated chunk = %v/%v", loc, ok)
	}
	if pt.Runs() != 3 {
		t.Errorf("split mapping has %d runs, want 3", pt.Runs())
	}
	// ... and mapping it back to the original location and address re-merges.
	pt.MapRange(5*8*4096, 8, InGPU, 5*8)
	if pt.Runs() != 1 {
		t.Errorf("re-map did not coalesce: %d runs, want 1", pt.Runs())
	}
}

// TestTLBRangeShootdownLargeRange exercises the entry-scan path (range
// larger than the TLB) against per-page invalidation semantics.
func TestTLBRangeShootdownLargeRange(t *testing.T) {
	tlb := MustNewTLB(64, 8, 4*units.KB)
	// Insert translations spread over a wide range.
	for i := uint64(0); i < 300; i++ {
		tlb.Insert(i*3<<12, PTE{Loc: InGPU, Addr: i})
	}
	// Shoot down a large aligned range; pages > sets triggers the scan.
	tlb.InvalidateRange(0, 450)
	for i := uint64(0); i < 300; i++ {
		va := i * 3 << 12
		if pte, ok := tlb.Lookup(va); ok {
			if i*3 < 450 {
				t.Fatalf("vpn %d survived range shootdown (%+v)", i*3, pte)
			}
		}
	}
	// Entries beyond the range must be untouched (modulo LRU eviction,
	// which only ever removes — a hit here must carry the right PTE).
	for i := uint64(150); i < 300; i++ {
		va := i * 3 << 12
		if pte, ok := tlb.Lookup(va); ok && pte.Addr != i {
			t.Fatalf("vpn %d has stale entry %+v", i*3, pte)
		}
	}
}
