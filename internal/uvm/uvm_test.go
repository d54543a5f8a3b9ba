package uvm

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

func TestTLBHitMissLRU(t *testing.T) {
	tlb := MustNewTLB(1, 2, 4*units.KB) // one set, two ways
	pteA := PTE{Loc: InGPU, Addr: 1}
	pteB := PTE{Loc: InGPU, Addr: 2}
	pteC := PTE{Loc: InGPU, Addr: 3}
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(0x1000, pteA)
	tlb.Insert(0x2000, pteB)
	if got, ok := tlb.Lookup(0x1000); !ok || got != pteA {
		t.Fatal("miss after insert")
	}
	// A is now MRU; inserting C evicts B (LRU).
	tlb.Insert(0x3000, pteC)
	if _, ok := tlb.Lookup(0x2000); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := tlb.Lookup(0x1000); !ok {
		t.Error("MRU entry evicted")
	}
	// Lookups: empty miss, hit(A), miss(B evicted), hit(A) = 2 hits, 2 misses.
	hits, misses, _ := tlb.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
	if tlb.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", tlb.HitRate())
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := MustNewTLB(4, 4, 4*units.KB)
	tlb.Insert(0x1000, PTE{Loc: InGPU, Addr: 1})
	tlb.Invalidate(0x1000)
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Error("hit after invalidate")
	}
	for i := uint64(0); i < 8; i++ {
		tlb.Insert(i<<12, PTE{Loc: InGPU, Addr: i})
	}
	tlb.Invalidate(3 << 12)
	for i := uint64(0); i < 8; i++ {
		if _, ok := tlb.Lookup(i << 12); ok == (i == 3) {
			t.Fatalf("page %d: hit=%v after invalidating page 3 only", i, ok)
		}
	}
	tlb.Insert(0x9000, PTE{Loc: InHost, Addr: 9})
	tlb.Flush()
	if _, ok := tlb.Lookup(0x9000); ok {
		t.Error("hit after flush")
	}
}

// TestTLBFlushCountsDroppedEntries pins Flush's counter semantics: one
// shootdown per entry actually dropped, none for an empty flush, and an
// entry Invalidate already dropped is not counted again.
func TestTLBFlushCountsDroppedEntries(t *testing.T) {
	tlb := MustNewTLB(4, 4, 4*units.KB)
	tlb.Flush()
	if _, _, sd := tlb.Stats(); sd != 0 {
		t.Fatalf("empty flush counted %d shootdowns", sd)
	}
	for i := uint64(0); i < 3; i++ {
		tlb.Insert(i<<12, PTE{Loc: InGPU, Addr: i})
	}
	tlb.Flush()
	if _, _, sd := tlb.Stats(); sd != 3 {
		t.Fatalf("flush of 3 live entries counted %d shootdowns, want 3", sd)
	}
	tlb.Insert(0x1000, PTE{Loc: InGPU, Addr: 1})
	tlb.Insert(0x2000, PTE{Loc: InGPU, Addr: 2})
	tlb.Invalidate(0x1000)
	tlb.Invalidate(0x1000) // already gone: no second count
	tlb.Flush()
	if _, _, sd := tlb.Stats(); sd != 5 {
		t.Fatalf("shootdowns = %d, want 5 (3 flushed + 1 invalidated + 1 flushed)", sd)
	}
}

// TestTLBPeekMovesNothing: Peek reports what a Lookup would resolve to but
// changes neither the LRU order nor the hit/miss counters.
func TestTLBPeekMovesNothing(t *testing.T) {
	tlb := MustNewTLB(1, 2, 4*units.KB) // one set, two ways
	tlb.Insert(0x1000, PTE{Loc: InGPU, Addr: 1})
	tlb.Insert(0x2000, PTE{Loc: InHost, Addr: 2}) // 0x1000 is now LRU
	if pte, ok := tlb.Peek(0x1000); !ok || pte != (PTE{Loc: InGPU, Addr: 1}) {
		t.Fatalf("Peek(0x1000) = %+v, %v", pte, ok)
	}
	if _, ok := tlb.Peek(0x3000); ok {
		t.Fatal("Peek hit an absent page")
	}
	if h, m, _ := tlb.Stats(); h != 0 || m != 0 {
		t.Fatalf("Peek moved counters: hits=%d misses=%d", h, m)
	}
	// Had Peek promoted 0x1000, this insert would evict 0x2000 instead.
	tlb.Insert(0x3000, PTE{Loc: InGPU, Addr: 3})
	if _, ok := tlb.Peek(0x1000); ok {
		t.Error("Peek moved the LRU entry to the front")
	}
	if _, ok := tlb.Peek(0x2000); !ok {
		t.Error("MRU entry evicted")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := MustNewTLB(2, 2, 4*units.KB)
	tlb.Insert(0x1000, PTE{Loc: InGPU, Addr: 1})
	tlb.Insert(0x1000, PTE{Loc: InFlash, Addr: 2}) // migration re-insert
	got, ok := tlb.Lookup(0x1000)
	if !ok || got.Loc != InFlash || got.Addr != 2 {
		t.Errorf("updated entry = %+v, %v", got, ok)
	}
}

func TestNewTLBRejectsBadConfig(t *testing.T) {
	if _, err := NewTLB(0, 4, 4*units.KB); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := NewTLB(4, 0, 4*units.KB); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewTLB(4, 4, 3000); err == nil {
		t.Error("non-power-of-two page accepted")
	}
}

func TestArbiterPriorities(t *testing.T) {
	q := &Queues{}
	q.Push(&Request{Kind: PreEvict, TensorID: 1, Bytes: units.MB})
	q.Push(&Request{Kind: Prefetch, TensorID: 2, Bytes: units.MB})
	q.Push(&Request{Kind: FaultFetch, TensorID: 3, Bytes: units.MB})
	q.Push(&Request{Kind: FaultFetch, TensorID: 4, Bytes: units.MB})

	a := &Arbiter{MaxBatchBytes: 10 * units.MB}
	set := a.NextTransferSet(q)
	if len(set) != 4 {
		t.Fatalf("set size = %d", len(set))
	}
	// Faults first, then prefetch, then evict.
	order := []int{3, 4, 2, 1}
	for i, want := range order {
		if set[i].TensorID != want {
			t.Errorf("set[%d] = tensor %d, want %d", i, set[i].TensorID, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queues not drained: %d", q.Len())
	}
}

func TestArbiterBatchLimit(t *testing.T) {
	q := &Queues{}
	for i := 0; i < 5; i++ {
		q.Push(&Request{Kind: Prefetch, TensorID: i, Bytes: 4 * units.MB})
	}
	a := &Arbiter{MaxBatchBytes: 10 * units.MB}
	// 4+4 = 8MB fits; adding the third would exceed 10MB, so sets come out
	// as 2, 2, 1.
	for i, want := range []int{2, 2, 1} {
		set := a.NextTransferSet(q)
		if len(set) != want {
			t.Fatalf("set %d size = %d, want %d", i, len(set), want)
		}
	}
	if a.NextTransferSet(q) != nil {
		t.Error("empty queues yielded a set")
	}
}

func TestArbiterOversizedRequestStillReleased(t *testing.T) {
	q := &Queues{}
	q.Push(&Request{Kind: PreEvict, TensorID: 9, Bytes: units.GB})
	a := &Arbiter{MaxBatchBytes: units.MB}
	set := a.NextTransferSet(q)
	if len(set) != 1 || set[0].TensorID != 9 {
		t.Fatalf("oversized request not released: %v", set)
	}
}

func TestQueueLens(t *testing.T) {
	q := &Queues{}
	q.Push(&Request{Kind: Prefetch})
	q.Push(&Request{Kind: PreEvict})
	if q.LenOf(Prefetch) != 1 || q.LenOf(PreEvict) != 1 || q.LenOf(FaultFetch) != 0 {
		t.Error("LenOf wrong")
	}
	if FaultFetch.String() != "fault" || Prefetch.String() != "prefetch" || PreEvict.String() != "pre-evict" {
		t.Error("kind strings wrong")
	}
	if InFlash.String() != "flash" || Unmapped.String() != "unmapped" {
		t.Error("location strings wrong")
	}
}

func TestTLBManyRandomInsertLookup(t *testing.T) {
	tlb := MustNewTLB(64, 8, 4*units.KB)
	rng := rand.New(rand.NewSource(123))
	ref := map[uint64]PTE{}
	for i := 0; i < 5000; i++ {
		va := uint64(rng.Intn(4096)) << 12
		pte := PTE{Loc: InHost, Addr: uint64(rng.Intn(1 << 20))}
		tlb.Insert(va, pte)
		ref[va>>12] = pte
	}
	// Every hit must agree with the reference (misses are allowed — the
	// TLB is smaller than the working set).
	for vpn, want := range ref {
		if got, ok := tlb.Lookup(vpn << 12); ok && got != want {
			t.Fatalf("vpn %d: stale entry %+v, want %+v", vpn, got, want)
		}
	}
}

func TestScheduledRequestKeepsFaultPriority(t *testing.T) {
	// A Scheduled demand miss rides the fault queue ahead of ordinary
	// prefetches (G10's late-tensor handling).
	q := &Queues{}
	q.Push(&Request{Kind: Prefetch, TensorID: 1, Bytes: units.MB})
	q.Push(&Request{Kind: FaultFetch, TensorID: 2, Bytes: units.MB, Scheduled: true})
	a := &Arbiter{MaxBatchBytes: 10 * units.MB}
	set := a.NextTransferSet(q)
	if len(set) != 2 || set[0].TensorID != 2 {
		t.Fatalf("scheduled demand miss not first: %+v", set)
	}
	if !set[0].Scheduled || set[1].Scheduled {
		t.Error("Scheduled flag lost in transit")
	}
}
