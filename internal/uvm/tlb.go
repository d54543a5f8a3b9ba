package uvm

import (
	"fmt"

	"g10sim/internal/units"
)

// TLB is a set-associative translation lookaside buffer with LRU
// replacement. Migrations invalidate affected entries (the shootdown the
// paper's UVM extension keeps coherent with the page table). A tensor's
// translation is cached under its first page only, so a whole-tensor
// shootdown is one Invalidate.
type TLB struct {
	sets     int
	ways     int
	pageBits uint
	// entries is a flat sets×ways array (set s occupies
	// entries[s*ways : s*ways+setLen[s]], most-recently-used first).
	entries  []tlbEntry
	setLen   []int32
	setValid []int32 // live entries per set
	valid    int64   // total live entries

	hits, misses, shootdowns int64
}

type tlbEntry struct {
	vpn   uint64
	pte   PTE
	valid bool
}

// NewTLB builds a sets×ways TLB for the given page size.
func NewTLB(sets, ways int, pageSize units.Bytes) (*TLB, error) {
	if sets <= 0 || ways <= 0 {
		return nil, fmt.Errorf("uvm: TLB needs positive sets and ways, got %d×%d", sets, ways)
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("uvm: page size %d not a positive power of two", pageSize)
	}
	bits := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		bits++
	}
	t := &TLB{
		sets: sets, ways: ways, pageBits: bits,
		entries:  make([]tlbEntry, sets*ways),
		setLen:   make([]int32, sets),
		setValid: make([]int32, sets),
	}
	return t, nil
}

// MustNewTLB panics on config error.
func MustNewTLB(sets, ways int, pageSize units.Bytes) *TLB {
	t, err := NewTLB(sets, ways, pageSize)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *TLB) setOf(vpn uint64) int { return int(vpn % uint64(t.sets)) }

// set returns the occupied entries of set s, MRU first.
func (t *TLB) set(s int) []tlbEntry {
	return t.entries[s*t.ways : s*t.ways+int(t.setLen[s])]
}

// Lookup searches for the translation of va, updating LRU order and
// hit/miss counters.
func (t *TLB) Lookup(va uint64) (PTE, bool) {
	vpn := va >> t.pageBits
	set := t.set(t.setOf(vpn))
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			// Move to front (MRU).
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			t.hits++
			return e.pte, true
		}
	}
	t.misses++
	return PTE{}, false
}

// Peek reports the translation cached for va, like a Lookup hit, but moves
// no LRU order or counter: a check may call it without changing the run it
// checks.
func (t *TLB) Peek(va uint64) (PTE, bool) {
	vpn := va >> t.pageBits
	set := t.set(t.setOf(vpn))
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			return set[i].pte, true
		}
	}
	return PTE{}, false
}

// Insert fills the translation for va, evicting the set's LRU entry if
// full. Invalidated entries keep their slot until evicted.
func (t *TLB) Insert(va uint64, pte PTE) {
	vpn := va >> t.pageBits
	s := t.setOf(vpn)
	set := t.set(s)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			copy(set[1:i+1], set[:i])
			set[0] = tlbEntry{vpn: vpn, pte: pte, valid: true}
			return
		}
	}
	evictedValid := false
	if int(t.setLen[s]) < t.ways {
		t.setLen[s]++
		set = t.set(s)
	} else {
		evictedValid = set[len(set)-1].valid
	}
	copy(set[1:], set)
	set[0] = tlbEntry{vpn: vpn, pte: pte, valid: true}
	if !evictedValid {
		t.setValid[s]++
		t.valid++
	}
}

// Invalidate drops the entry for va if present, counting one shootdown.
func (t *TLB) Invalidate(va uint64) {
	vpn := va >> t.pageBits
	s := t.setOf(vpn)
	if t.setValid[s] == 0 {
		return
	}
	set := t.set(s)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
			t.setValid[s]--
			t.valid--
			t.shootdowns++
			return
		}
	}
}

// Flush drops every entry, counting one shootdown per entry actually
// dropped; a flush of an empty TLB shoots nothing down.
func (t *TLB) Flush() {
	t.shootdowns += t.valid
	t.valid = 0
	for s := range t.setLen {
		t.setLen[s] = 0
		t.setValid[s] = 0
	}
}

// Stats reports (hits, misses, shootdowns).
func (t *TLB) Stats() (hits, misses, shootdowns int64) {
	return t.hits, t.misses, t.shootdowns
}

// HitRate reports hits/(hits+misses), or 0 with no lookups.
func (t *TLB) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
