package gpu

import (
	"math/rand"
	"sort"
	"testing"

	"g10sim/internal/units"
)

// heapOrderTrial drives a typed heap with a random interleaving of pushes
// and pops, checking every pop against the least entry of a sort.Slice
// reference, then pops both down to empty. Keys come from a tiny domain so
// ties and exact duplicates are common.
func heapOrderTrial[E comparable](t *testing.T, rng *rand.Rand, ops int,
	gen func() E, less func(a, b E) bool, push func(E), pop func() E, size func() int) {
	t.Helper()
	var ref []E
	check := func(step int) {
		t.Helper()
		sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
		got := pop()
		if got != ref[0] {
			t.Fatalf("step %d: popped %+v, want %+v", step, got, ref[0])
		}
		ref = ref[1:]
		if size() != len(ref) {
			t.Fatalf("step %d: heap holds %d entries, want %d", step, size(), len(ref))
		}
	}
	for step := 0; step < ops; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			e := gen()
			push(e)
			ref = append(ref, e)
			continue
		}
		check(step)
	}
	for step := ops; len(ref) > 0; step++ {
		check(step)
	}
}

// TestExecHeapOrder pins the kernel-end heap's pop sequence to (at, idx)
// order, including equal-at ties and the duplicate entries abortExec
// leaves behind.
func TestExecHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var h execHeap
		gen := func() execEntry {
			return execEntry{at: units.Time(rng.Intn(6)), idx: rng.Intn(5)}
		}
		heapOrderTrial(t, rng, 1+rng.Intn(200), gen, execLess, h.push, h.pop,
			func() int { return len(h) })
	}
}

// TestAdmitHeapOrder pins the admission heap's pop sequence to (reload,
// key, idx) order: every prefill entry ahead of every reload entry, FCFS by
// arrival key, ties by index. A request's pointer follows its index, as in
// the serving engine.
func TestAdmitHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reqs := make([]infReq, 5)
	for trial := 0; trial < 300; trial++ {
		var h admitHeap
		gen := func() admitEntry {
			idx := rng.Intn(len(reqs))
			return admitEntry{reload: rng.Intn(2) == 0, key: units.Time(rng.Intn(6)), idx: idx, q: &reqs[idx]}
		}
		heapOrderTrial(t, rng, 1+rng.Intn(200), gen, admitLess, h.push, h.pop,
			func() int { return len(h) })
	}
}
