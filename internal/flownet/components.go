// Component-factorized rate re-derivation.
//
// The max-min fair allocation computed by progressive filling factors
// exactly across connected components of the bipartite graph whose nodes
// are active flows and busy resources and whose edges are route membership:
// a filling round's bottleneck choice in one component neither reads nor
// writes any other component's state, so the global algorithm's round
// sequence restricted to a component is the per-component algorithm's round
// sequence — the same float operations in the same order, hence bit-equal
// rates (DESIGN.md §11 gives the argument in full).
//
// That factorization lets components whose flow multiset and capacities are
// unchanged since the last recompute (no dirty resource) keep their
// allocation verbatim and skip filling entirely — in a fleet, one tenant's
// chunk completion re-derives that tenant's coupling group, not every flow
// in the cluster. Every recompute the frontier refill cannot serve comes
// through here, whatever the network's size; the one fill over every active
// flow survives only as the reference side of the differential tests
// (Network.forceGlobalFill).
package flownet

// component is one connected group of active flows and the busy resources
// they traverse. res is kept in registration order so the bottleneck search
// breaks ties exactly as a scan over every registered resource would; flow
// order is free — a filling round freezes the set of flows using the
// bottleneck, and every one subtracts the same share, so the fill is
// flow-order-independent bit for bit.
type component struct {
	flows []*Flow
	res   []*Resource
	// rec, when non-nil, asks the fill to record its trace for frontier
	// refills; ref pins the fill to the reference scan loop
	// (Network.refFill).
	rec *fillTrace
	ref bool
}

// markDirty records that r was touched since the last recompute.
func (n *Network) markDirty(r *Resource) {
	if !r.dirty {
		r.dirty = true
		n.dirtyRes = append(n.dirtyRes, r)
	}
}

// markRouteDirty marks every resource on a route (flow started, completed,
// or succeeded there).
func (n *Network) markRouteDirty(route []*Resource) {
	for _, r := range route {
		n.markDirty(r)
	}
}

// recomputeComponents is the scoped component-decomposed progressive fill:
// flood-fill the dirty components from the dirty resources through the
// per-resource flow adjacency, then refill only those. Components untouched
// since the last recompute are never even visited: discovery cost scales
// with the dirty subgraph, not the active set (one tenant's chunk completion
// walks that tenant's coupling group, whatever the fleet size).
func (n *Network) recomputeComponents() {
	n.busyStamp++
	stamp := n.busyStamp
	var ncomp int
	var overlap bool
	if n.forceGlobalFill {
		// Never records a trace, so nothing can overlap one.
		ncomp = n.globalComponent(stamp)
	} else {
		ncomp, overlap = n.dirtyComponents(stamp)
	}
	comps := n.comps[:ncomp]
	n.touched = n.touched[:0]
	for i := range comps {
		n.touched = append(n.touched, comps[i].flows...)
	}

	// Trace bookkeeping: a full fill of any component touching the traced
	// one supersedes the trace (the refilled state no longer matches the
	// recording); with no valid trace left, record the largest dirty
	// component worth refilling incrementally — in the one-giant-component
	// regime that is the coupling group nearly every future delta lands in.
	if overlap {
		n.invalidateTrace()
	}
	if n.trace == nil && !n.refFill && !n.forceGlobalFill {
		best := -1
		for i := range comps {
			if len(comps[i].flows) >= frontierMinFlows && (best < 0 || len(comps[i].flows) > len(comps[best].flows)) {
				best = i
			}
		}
		if best >= 0 {
			n.trace = n.newTrace()
			comps[best].rec = n.trace
		}
	}

	for i := range comps {
		fillComponent(&comps[i], &n.fill)
	}
	// Settle the flows whose rate the fill changed, replaying elapsed
	// segments at the outgoing rate — untouched components and unchanged
	// flows keep their settlement debt.
	for _, f := range n.touched {
		if f.rate != f.prevRate {
			n.settleFlowAt(f, f.prevRate)
		}
	}
}

// dirtyComponents discovers the components holding a dirty resource into
// n.comps and returns their count, and whether any of them, or any idle
// dirty resource, belongs to the fill trace.
func (n *Network) dirtyComponents(stamp uint64) (ncomp int, overlap bool) {
	traceGen := uint32(0)
	if n.trace != nil {
		traceGen = n.trace.gen
	}
	stack := n.resStack[:0]
	for _, seed := range n.dirtyRes {
		if traceGen != 0 && seed.traceGen == traceGen {
			// Checked before the idle skip: an idle traced resource still
			// carries its recorded capacity and count in the trace, and
			// this recompute drops the delta records that would correct
			// them.
			overlap = true
		}
		if seed.busyStamp == stamp || len(seed.flows) == 0 {
			// Already flooded into an earlier component, or idle: a dirty
			// resource with no active flows constrains nothing.
			continue
		}
		c := n.component(ncomp)
		ncomp++
		seed.claim(stamp)
		stack = append(stack, seed)
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.res = append(c.res, r)
			for _, f := range r.flows {
				if f.fillStamp == stamp {
					continue
				}
				f.fillStamp = stamp
				f.prevRate = f.rate
				c.flows = append(c.flows, f)
				for _, r2 := range f.route {
					if r2.claim(stamp) {
						if traceGen != 0 && r2.traceGen == traceGen {
							overlap = true
						}
						stack = append(stack, r2)
					}
					r2.count++
				}
			}
		}
		sortByRegIdx(c.res)
	}
	n.resStack = stack[:0]
	return ncomp, overlap
}

// globalComponent builds one component holding every active flow, in
// n.active order, for the reference scan loop, and returns the component
// count (zero when the network is idle).
func (n *Network) globalComponent(stamp uint64) int {
	if len(n.active) == 0 {
		return 0
	}
	c := n.component(0)
	c.ref = true
	for _, f := range n.active {
		f.prevRate = f.rate
		c.flows = append(c.flows, f)
		for _, r := range f.route {
			if r.claim(stamp) {
				c.res = append(c.res, r)
			}
			r.count++
		}
	}
	sortByRegIdx(c.res)
	return 1
}

// component returns n.comps[i] emptied for reuse, growing n.comps by one
// when i is past its end.
func (n *Network) component(i int) *component {
	if i == len(n.comps) {
		n.comps = append(n.comps, component{})
	}
	c := &n.comps[i]
	c.flows = c.flows[:0]
	c.res = c.res[:0]
	c.rec = nil
	c.ref = n.refFill
	return c
}

// claim primes r's fill state (full capacity, no flows counted) the first
// time the current recompute's discovery reaches it, reporting whether this
// was that first time.
func (r *Resource) claim(stamp uint64) bool {
	if r.busyStamp == stamp {
		return false
	}
	r.busyStamp = stamp
	r.avail = r.capacity
	r.count = 0
	return true
}

// sortByRegIdx orders a component's resources by registration index, so
// the bottleneck search visits them in the order a scan over every
// registered resource would. Insertion sort: the list is small and
// collected in near-registration order, and this avoids sort.Slice's
// closure allocation on the per-event path.
func sortByRegIdx(rs []*Resource) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for j >= 0 && rs[j].regIdx > r.regIdx {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
}
