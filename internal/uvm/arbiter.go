package uvm

import (
	"fmt"

	"g10sim/internal/units"
)

// RequestKind classifies migration metadata queue entries (Figure 10).
type RequestKind int

const (
	// FaultFetch is a demand fetch triggered by a page fault — highest
	// priority in the arbiter.
	FaultFetch RequestKind = iota
	// Prefetch is a g10_prefetch-initiated fetch.
	Prefetch
	// PreEvict is a g10_pre_evict-initiated eviction.
	PreEvict
)

func (k RequestKind) String() string {
	switch k {
	case FaultFetch:
		return "fault"
	case Prefetch:
		return "prefetch"
	case PreEvict:
		return "pre-evict"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// Request is one tensor migration waiting in the metadata queues.
type Request struct {
	Kind     RequestKind
	TensorID int
	Bytes    units.Bytes
	Src, Dst Location
	// Scheduled marks a demand miss that the migration handler services
	// as a planned transfer (G10's compiler-instrumented runtime): it
	// takes fault-queue priority but not the fault cost model.
	Scheduled bool
}

// Queues are the per-kind migration metadata queues of Figure 10.
type Queues struct {
	fault, prefetch, evict []*Request
}

// Push enqueues a request in its kind's queue.
func (q *Queues) Push(r *Request) {
	switch r.Kind {
	case FaultFetch:
		q.fault = append(q.fault, r)
	case Prefetch:
		q.prefetch = append(q.prefetch, r)
	case PreEvict:
		q.evict = append(q.evict, r)
	default:
		panic(fmt.Sprintf("uvm: unknown request kind %v", r.Kind))
	}
}

// Reset empties every queue (crash teardown): after it returns, nothing in
// the queues references any request, so the caller may recycle them.
func (q *Queues) Reset() {
	q.fault = q.fault[:0]
	q.prefetch = q.prefetch[:0]
	q.evict = q.evict[:0]
}

// Len reports total queued requests.
func (q *Queues) Len() int { return len(q.fault) + len(q.prefetch) + len(q.evict) }

// LenOf reports queued requests of one kind.
func (q *Queues) LenOf(k RequestKind) int {
	switch k {
	case FaultFetch:
		return len(q.fault)
	case Prefetch:
		return len(q.prefetch)
	case PreEvict:
		return len(q.evict)
	}
	return 0
}

// maxTransferSet bounds the bytes of one transfer set. At least one request
// is always released even if it alone exceeds the bound.
const maxTransferSet = 256 * units.MB

// Arbiter forms transfer sets from the metadata queues: page faults first,
// then prefetches, then pre-evictions, batching up to maxTransferSet per set
// to saturate the interconnect (Figure 10 steps 3–4).
type Arbiter struct {
	// scratch backs the returned set; each call invalidates the previous
	// call's slice, so the dispatcher's pop/requeue cycle allocates nothing.
	scratch []*Request
}

// NextTransferSet dequeues the next batch. Empty queues yield nil. The
// returned slice is reused by the next call.
func (a *Arbiter) NextTransferSet(q *Queues) []*Request {
	set := a.scratch[:0]
	var used units.Bytes
	take := func(queue *[]*Request) {
		for len(*queue) > 0 {
			r := (*queue)[0]
			if len(set) > 0 && used+r.Bytes > maxTransferSet {
				return
			}
			set = append(set, r)
			used += r.Bytes
			*queue = (*queue)[1:]
			if used >= maxTransferSet {
				return
			}
		}
	}
	take(&q.fault)
	if used < maxTransferSet {
		take(&q.prefetch)
	}
	if used < maxTransferSet {
		take(&q.evict)
	}
	if len(set) == 0 {
		return nil // keep the empty-queues == nil contract
	}
	a.scratch = set
	return set
}
