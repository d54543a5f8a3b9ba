package uvm

import (
	"fmt"

	"g10sim/internal/units"
)

// MemPool is a capacity arbiter over one host memory: every tenant of a
// cluster reserves staging space from the same pool, so a job that parks
// large working sets in host DRAM genuinely starves its neighbours (their
// evictions fall back to flash), which a statically divided capacity cannot
// model. A single-machine simulation owns a private pool, making the two
// configurations behave identically at one tenant.
//
// The pool is also a wakeup source for event-driven schedulers: a tenant
// whose reservation was denied can subscribe with AwaitFree and is notified
// — FIFO, grant-sized — when released capacity could satisfy it, instead of
// every tenant re-polling the pool on every event.
type MemPool struct {
	capacity units.Bytes
	used     units.Bytes
	waiters  []poolWaiter
	// scratch is the retired waiter array of the previous notify round; the
	// two backing arrays ping-pong so steady-state notification allocates
	// nothing. nil while a notify round is mid-wake (see notify).
	scratch []poolWaiter
	// owned ledgers the bytes each tagged owner (ReserveFor) currently
	// holds, so a crashed tenant's grants can be bulk-released without the
	// caller replaying its reservation history. Lazily allocated; anonymous
	// Reserve/Release traffic never touches it.
	owned map[int]units.Bytes
}

// poolWaiter is one pending capacity subscription. owner is the tag passed
// to AwaitFreeFor (anonOwner for plain AwaitFree) so ReleaseAll can drop a
// dead tenant's subscriptions.
type poolWaiter struct {
	need  units.Bytes
	wake  func()
	owner int
}

// anonOwner tags reservations and subscriptions made through the untagged
// API; ReleaseAll never matches it.
const anonOwner = -1

// NewMemPool builds a pool of the given capacity.
func NewMemPool(capacity units.Bytes) *MemPool {
	return &MemPool{capacity: capacity}
}

// Reserve claims n bytes; it reports false (claiming nothing) when the pool
// cannot hold them.
func (p *MemPool) Reserve(n units.Bytes) bool {
	if n < 0 || p.used+n > p.capacity {
		return false
	}
	p.used += n
	return true
}

// Release returns n previously reserved bytes to the pool and notifies
// waiters the freed capacity could satisfy.
func (p *MemPool) Release(n units.Bytes) {
	if n < 0 || n > p.used {
		panic(fmt.Sprintf("uvm: releasing %v from a pool holding %v", n, p.used))
	}
	p.used -= n
	p.notify()
}

// AwaitFree subscribes a wakeup for when at least need bytes could be
// reserved. Wakeups are advisory grants: the callback runs once (FIFO order
// among waiters, head first) after a Release leaves enough room, and the
// subscriber must re-attempt its reservation — nothing is held on its
// behalf. A need satisfiable right now fires on the next Release too, not
// immediately, so subscribing never re-enters the caller.
func (p *MemPool) AwaitFree(need units.Bytes, wake func()) {
	p.AwaitFreeFor(anonOwner, need, wake)
}

// AwaitFreeFor is AwaitFree with the subscription tagged by owner, so a
// later ReleaseAll(owner) drops it (a dead tenant must not consume a grant
// a surviving waiter behind it is queued for).
func (p *MemPool) AwaitFreeFor(owner int, need units.Bytes, wake func()) {
	if need < 0 {
		need = 0
	}
	p.waiters = append(p.waiters, poolWaiter{need: need, wake: wake, owner: owner})
}

// ReserveFor is Reserve with the grant ledgered under owner for ReleaseAll.
func (p *MemPool) ReserveFor(owner int, n units.Bytes) bool {
	if !p.Reserve(n) {
		return false
	}
	if p.owned == nil {
		p.owned = make(map[int]units.Bytes)
	}
	p.owned[owner] += n
	return true
}

// ReleaseFor returns n bytes previously claimed with ReserveFor(owner).
func (p *MemPool) ReleaseFor(owner int, n units.Bytes) {
	if held := p.owned[owner]; n > held {
		panic(fmt.Sprintf("uvm: owner %d releasing %v but holds %v", owner, n, held))
	}
	p.owned[owner] -= n
	p.Release(n)
}

// OwnedBy reports the bytes owner currently holds via ReserveFor.
func (p *MemPool) OwnedBy(owner int) units.Bytes { return p.owned[owner] }

// ReleaseAll releases every byte owner holds and drops its pending
// subscriptions, then runs one FIFO notify round over the survivors — the
// bulk teardown a server crash needs. The round runs even when the owner
// held nothing: dropping a queue-head subscription alone can unblock the
// waiters behind it. Returns the bytes released.
func (p *MemPool) ReleaseAll(owner int) units.Bytes {
	n := p.owned[owner]
	delete(p.owned, owner)
	kept := p.waiters[:0]
	for _, w := range p.waiters {
		if w.owner != owner {
			kept = append(kept, w)
		}
	}
	p.waiters = kept
	if n > 0 {
		p.used -= n
	}
	p.notify()
	return n
}

// notify pops waiters in FIFO order as long as the head's need fits the
// capacity not yet promised to an earlier grant this round. Deducting each
// grant before looking at the next waiter keeps one large Release from
// waking the whole queue at once (each wakeup is one grant).
//
// The FIFO order is a determinism contract, not just fairness: grant order
// is exactly subscription order, so any scheduler that subscribes its
// tenants in a fixed order (the cluster drivers use ascending tenant
// index) observes an identical wake sequence — the event driver's
// byte-identity to the polling reference depends on it.
func (p *MemPool) notify() {
	grantable := p.Free()
	woken := 0
	for woken < len(p.waiters) && p.waiters[woken].need <= grantable {
		grantable -= p.waiters[woken].need
		woken++
	}
	if woken == 0 {
		return
	}
	// Compact the survivors into the recycled scratch array, then run the
	// grants off the retired one. The scratch is taken (nil) while the
	// wakeups run: a callback may Release reentrantly, and the nested
	// notify must not reuse the array this round is still walking.
	ready := p.waiters
	scratch := p.scratch
	p.scratch = nil
	p.waiters = append(scratch[:0], ready[woken:]...)
	for _, w := range ready[:woken] {
		w.wake()
	}
	p.scratch = ready[:0]
}

// Waiters reports the pending subscription count.
func (p *MemPool) Waiters() int { return len(p.waiters) }

// Capacity reports the pool size.
func (p *MemPool) Capacity() units.Bytes { return p.capacity }

// Used reports the reserved bytes.
func (p *MemPool) Used() units.Bytes { return p.used }

// Free reports the unreserved bytes.
func (p *MemPool) Free() units.Bytes { return p.capacity - p.used }
