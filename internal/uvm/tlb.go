package uvm

import (
	"fmt"
	"sort"

	"g10sim/internal/units"
)

// maxTLBRanges bounds the pending-shootdown range list. Past it, a full
// reconcile (one sets×ways sweep) applies every pending range eagerly, so
// the amortized cost per range shootdown stays O(sets×ways / maxTLBRanges)
// and every Lookup's staleness check stays O(log maxTLBRanges).
const maxTLBRanges = 64

// TLB is a set-associative translation lookaside buffer with LRU
// replacement. Migrations invalidate affected entries (the shootdown the
// paper's UVM extension keeps coherent with the unified page table).
//
// Whole-tensor range shootdowns are epoch-based: InvalidateRange records
// the range with a fresh epoch instead of sweeping entries, and an entry is
// live iff its valid bit is set AND no later-epoch range covers its vpn.
// Stale entries resolve lazily — Lookup/Insert check only the entries they
// touch (one binary search over the range list), and Stats/Flush reconcile
// everything so counters stay exact at observation points. The eager
// per-entry path (the reference field) is retained as the oracle of this
// package's differential tests, which set it on their own instances.
type TLB struct {
	sets     int
	ways     int
	pageBits uint
	// entries is a flat sets×ways array (set s occupies
	// entries[s*ways : s*ways+setLen[s]], most-recently-used first); the
	// flat layout keeps range shootdown scans cache-friendly.
	entries  []tlbEntry
	setLen   []int32
	setValid []int32 // live entries per set (upper bound until reconciled)
	valid    int64   // total live entries (upper bound until reconciled)

	// epoch shootdown state. ranges is sorted by lo and non-overlapping;
	// epochs are assigned monotonically, so any covered part of an older
	// range is simply superseded when a new one splices in.
	reference bool // eager per-entry shootdowns (differential reference)
	epoch     uint64
	ranges    []tlbRange

	hits, misses, shootdowns int64
	epochShootdowns          int64 // range shootdowns served by an epoch bump
}

type tlbEntry struct {
	vpn   uint64
	pte   PTE
	stamp uint64 // epoch at insertion; stale if an epoch range covers vpn
	valid bool
}

// tlbRange is a pending shootdown of vpns in [lo, hi) issued at epoch.
type tlbRange struct {
	lo, hi uint64
	epoch  uint64
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

// stale reports whether a pending epoch range supersedes the entry: some
// range inserted after the entry's stamp covers its vpn. The stamp check
// short-circuits the binary search for entries newer than every range.
func (t *TLB) stale(e *tlbEntry) bool {
	if e.stamp >= t.epoch || len(t.ranges) == 0 {
		return false
	}
	rs := t.ranges
	i := sort.Search(len(rs), func(i int) bool { return rs[i].hi > e.vpn })
	return i < len(rs) && rs[i].lo <= e.vpn && rs[i].epoch > e.stamp
}

// drop invalidates the entry in set s, counting the shootdown. Used both
// when a pending epoch shootdown lands on a touched entry and for direct
// single-page invalidations — the total matches the eager reference either
// way, since the reference would have counted the same entry exactly once.
func (t *TLB) drop(s int, e *tlbEntry) {
	e.valid = false
	t.setValid[s]--
	t.valid--
	t.shootdowns++
}

// Lookup searches for the translation of va, updating LRU order and
// hit/miss counters. A matching entry superseded by a pending epoch
// shootdown resolves to a miss here (at most one live entry per vpn exists,
// so no further scan can hit).
func (t *TLB) Lookup(va uint64) (PTE, bool) {
	vpn := va >> t.pageBits
	s := t.setOf(vpn)
	set := t.set(s)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			if t.stale(&set[i]) {
				t.drop(s, &set[i])
				break
			}
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

// Peek reports the live translation cached for va, like a Lookup hit, but
// moves no LRU order, counter or pending shootdown range: a check may call
// it without changing the run it checks.
func (t *TLB) Peek(va uint64) (PTE, bool) {
	vpn := va >> t.pageBits
	set := t.set(t.setOf(vpn))
	for i := range set {
		if set[i].valid && set[i].vpn == vpn && !t.stale(&set[i]) {
			return set[i].pte, true
		}
	}
	return PTE{}, false
}

// Insert fills the translation for va, evicting the set's LRU entry if
// full. A stale match or stale evictee resolves first, so the structural
// outcome (overwrite-in-place vs evict) matches the eager reference.
func (t *TLB) Insert(va uint64, pte PTE) {
	vpn := va >> t.pageBits
	s := t.setOf(vpn)
	set := t.set(s)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			if t.stale(&set[i]) {
				t.drop(s, &set[i])
				break
			}
			copy(set[1:i+1], set[:i])
			set[0] = tlbEntry{vpn: vpn, pte: pte, stamp: t.epoch, valid: true}
			return
		}
	}
	evictedValid := false
	if int(t.setLen[s]) < t.ways {
		t.setLen[s]++
		set = t.set(s)
	} else {
		last := &set[len(set)-1]
		if last.valid && t.stale(last) {
			t.drop(s, last)
		}
		evictedValid = last.valid
	}
	copy(set[1:], set)
	set[0] = tlbEntry{vpn: vpn, pte: pte, stamp: t.epoch, valid: true}
	if !evictedValid {
		t.setValid[s]++
		t.valid++
	}
}

// Invalidate drops the entry for va if present (single-page shootdown).
func (t *TLB) Invalidate(va uint64) {
	vpn := va >> t.pageBits
	s := t.setOf(vpn)
	if t.setValid[s] == 0 {
		return
	}
	set := t.set(s)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			t.drop(s, &set[i])
			return
		}
	}
}

// InvalidateRange shoots down all entries covering [va, va+pages). On the
// epoch path a multi-page shootdown records the range with a fresh epoch —
// O(log ranges) plus a splice — and covered entries self-invalidate when
// next touched (or at the next reconcile), so whole-tensor shootdowns no
// longer sweep sets×ways entries. The reference path scans: per-page
// probes when the range is small, one pass over all entries otherwise.
func (t *TLB) InvalidateRange(va uint64, pages int64) {
	if pages <= 0 || t.valid == 0 {
		return
	}
	if !t.reference {
		if pages == 1 {
			t.Invalidate(va)
			return
		}
		lo := va >> t.pageBits
		t.epoch++
		t.epochShootdowns++
		t.noteRange(lo, lo+uint64(pages))
		if len(t.ranges) > maxTLBRanges {
			t.reconcile()
		}
		return
	}
	if pages <= int64(t.sets) {
		for i := int64(0); i < pages; i++ {
			t.Invalidate(va + uint64(i)<<t.pageBits)
		}
		return
	}
	lo := va >> t.pageBits
	hi := lo + uint64(pages)
	for s := 0; s < t.sets; s++ {
		if t.setValid[s] == 0 {
			continue
		}
		set := t.set(s)
		for i := range set {
			if set[i].valid && set[i].vpn >= lo && set[i].vpn < hi {
				t.drop(s, &set[i])
			}
		}
	}
}

// noteRange splices [lo, hi) at the current epoch into the sorted,
// non-overlapping range list, trimming older ranges it covers (their
// surviving remainders keep their own epochs).
func (t *TLB) noteRange(lo, hi uint64) {
	rs := t.ranges
	i := sort.Search(len(rs), func(i int) bool { return rs[i].hi > lo })
	j := i
	var repl [3]tlbRange
	nrepl := 0
	for j < len(rs) && rs[j].lo < hi {
		if r := rs[j]; r.lo < lo {
			repl[nrepl] = tlbRange{lo: r.lo, hi: lo, epoch: r.epoch}
			nrepl++
		}
		j++
	}
	repl[nrepl] = tlbRange{lo: lo, hi: hi, epoch: t.epoch}
	nrepl++
	if j > i {
		if r := rs[j-1]; r.hi > hi {
			repl[nrepl] = tlbRange{lo: hi, hi: r.hi, epoch: r.epoch}
			nrepl++
		}
	}
	old := len(rs)
	switch delta := nrepl - (j - i); {
	case delta > 0:
		for k := 0; k < delta; k++ {
			rs = append(rs, tlbRange{})
		}
		copy(rs[j+delta:], rs[j:old])
	case delta < 0:
		copy(rs[i+nrepl:], rs[j:])
		rs = rs[:old+delta]
	}
	copy(rs[i:], repl[:nrepl])
	t.ranges = rs
}

// reconcile applies every pending epoch shootdown eagerly, making the
// valid counts and the shootdown counter exact, then clears the range
// list (surviving entries stay live under the no-covering-range rule).
func (t *TLB) reconcile() {
	if len(t.ranges) == 0 {
		return
	}
	for s := 0; s < t.sets; s++ {
		if t.setValid[s] == 0 {
			continue
		}
		set := t.set(s)
		for i := range set {
			if set[i].valid && t.stale(&set[i]) {
				t.drop(s, &set[i])
			}
		}
	}
	t.ranges = t.ranges[:0]
}

// Flush drops every entry, counting one shootdown per entry actually
// dropped (consistent with InvalidateRange's per-entry accounting); a
// flush of an empty TLB shoots nothing down.
func (t *TLB) Flush() {
	t.reconcile()
	t.shootdowns += t.valid
	t.valid = 0
	for s := range t.setLen {
		t.setLen[s] = 0
		t.setValid[s] = 0
	}
}

// Stats reports (hits, misses, shootdowns). Pending epoch shootdowns are
// reconciled first so the counts match the eager reference exactly.
func (t *TLB) Stats() (hits, misses, shootdowns int64) {
	t.reconcile()
	return t.hits, t.misses, t.shootdowns
}

// EpochShootdowns reports how many range shootdowns were served by an
// epoch bump instead of an entry sweep (0 on the reference path).
func (t *TLB) EpochShootdowns() int64 { return t.epochShootdowns }

// HitRate reports hits/(hits+misses), or 0 with no lookups.
func (t *TLB) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
