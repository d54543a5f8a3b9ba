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
// in the cluster.
package flownet

// component is one connected group of active flows and the busy resources
// they traverse. res is kept in registration order so the bottleneck search
// breaks ties exactly as the global fill's scan would; flow order is free —
// a filling round freezes the set of flows using the bottleneck, and every
// one subtracts the same share, so the fill is flow-order-independent bit
// for bit.
type component struct {
	flows []*Flow
	res   []*Resource
	// rec, when non-nil, asks the fill to record its trace for frontier
	// refills; ref pins the fill to the reference scan loop
	// (ForceReferenceFillForTest).
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
	if !n.adjacency {
		// First component-decomposed recompute: bring the adjacency up for
		// every already-active flow; activations and completions maintain it
		// from here on.
		n.adjacency = true
		for _, f := range n.active {
			n.attachFlow(f)
		}
	}
	n.busyStamp++
	stamp := n.busyStamp
	comps := n.comps
	ncomp := 0
	touched := n.touched[:0]
	stack := n.resStack[:0]
	traceGen := uint32(0)
	if n.trace != nil {
		traceGen = n.trace.gen
	}
	overlap := false
	for _, seed := range n.dirtyRes {
		if seed.busyStamp == stamp || len(seed.flows) == 0 {
			// Already flooded into an earlier component, or idle: a dirty
			// resource with no active flows constrains nothing.
			continue
		}
		if ncomp < len(comps) {
			comps[ncomp].flows = comps[ncomp].flows[:0]
			comps[ncomp].res = comps[ncomp].res[:0]
		} else {
			comps = append(comps, component{})
		}
		c := &comps[ncomp]
		c.rec = nil
		c.ref = n.refFill
		ncomp++
		seed.busyStamp = stamp
		seed.avail = seed.capacity
		seed.count = 0
		if traceGen != 0 && seed.traceGen == traceGen {
			overlap = true
		}
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
					if r2.busyStamp != stamp {
						r2.busyStamp = stamp
						r2.avail = r2.capacity
						r2.count = 0
						if traceGen != 0 && r2.traceGen == traceGen {
							overlap = true
						}
						stack = append(stack, r2)
					}
					r2.count++
				}
			}
		}
		// Order the component's resources by registration index (insertion
		// sort, as in the global fill) so the bottleneck search visits them
		// in the order the global scan would.
		rs := c.res
		for i := 1; i < len(rs); i++ {
			r := rs[i]
			j := i - 1
			for j >= 0 && rs[j].regIdx > r.regIdx {
				rs[j+1] = rs[j]
				j--
			}
			rs[j+1] = r
		}
		touched = append(touched, c.flows...)
	}
	n.comps = comps
	n.resStack = stack[:0]
	n.touched = touched

	// Trace bookkeeping: a full fill of any component touching the traced
	// one supersedes the trace (the refilled state no longer matches the
	// recording); with no valid trace left, record the largest dirty
	// component worth refilling incrementally — in the one-giant-component
	// regime that is the coupling group nearly every future delta lands in.
	if !n.refFill {
		if overlap {
			n.invalidateTrace()
		}
		if n.trace == nil {
			best := -1
			for i := 0; i < ncomp; i++ {
				if len(comps[i].flows) >= frontierMinFlows && (best < 0 || len(comps[i].flows) > len(comps[best].flows)) {
					best = i
				}
			}
			if best >= 0 {
				n.trace = n.newTrace()
				comps[best].rec = n.trace
			}
		}
	}

	for i := 0; i < ncomp; i++ {
		fillComponent(&comps[i], &n.fill)
	}
	// Settle the flows whose rate the fill changed (replaying elapsed
	// segments at the outgoing rate — untouched components and unchanged
	// flows keep their settlement debt), then re-derive the refilled
	// components' aggregate service rates.
	if !n.eager {
		for ci := 0; ci < ncomp; ci++ {
			c := &comps[ci]
			for _, f := range c.flows {
				if f.rate != f.prevRate {
					n.settleFlowAt(f, f.prevRate)
				}
			}
			for _, r := range c.res {
				n.fold(r)
				r.aggRate = 0
				r.aggN = 0
			}
			for _, f := range c.flows {
				for _, r := range f.route {
					r.aggRate += f.rate
					r.aggN++
				}
			}
		}
	}
}
