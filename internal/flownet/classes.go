// Rate classes: one completion-heap entry per bottleneck, not per flow.
//
// A rate class is the set of active flows that froze at one bottleneck
// resource in the last fill of its component (Flow.bneck). The fill gives
// every member the same float share, and between recomputes lazy settlement
// takes the same clamped rate×dt from each member per segment. Clamped
// subtraction of one value is monotone under IEEE rounding (a ≤ b implies
// a − min(x, a) ≤ b − min(x, b)), so the members' order by remaining bytes
// never changes while the class keeps its rate, and at one rate
// completionTime is monotone in remaining. The member with the least
// remaining, the class head, therefore completes no later than any other,
// and the completion heap keys one entry per class, on its head. This is
// the virtual-time idea of generalized processor sharing (Parekh &
// Gallager, IEEE/ACM ToN 1993), kept to what leaves every float as it was:
// members still settle one by one, replaying the same segments.
//
// When one arrival re-rates every flow frozen at a shared bottleneck, a
// recompute re-keys that bottleneck's one entry instead of one per flow:
// it re-keys only the classes whose rate or head changed. Each class keeps
// its members in an indexed min-heap by remaining, so a flow that changes
// class costs O(log k). When a large share of a recompute's flows changed
// class, the touched classes are regrouped wholesale instead: each class
// then only puts its least member first, and is heapified when it is next
// changed, which most regrouped classes never are before the next regroup.
//
// Classes exist only while the completion heap is in use (heapMode): below
// its threshold NextEvent scans the active set, and nothing here runs.
package flownet

// rateClass is the set of active flows that froze at one bottleneck
// resource in the last fill of its component. Every member carries the
// same rate.
type rateClass struct {
	// members is a min-heap by remaining bytes settled to now; each
	// member's Flow.clsIdx is its slot. While loose is set, only members[0]
	// is known to be least, and the rest are in no order (heapify fixes
	// that before any other change).
	members []*Flow
	loose   bool
	// rate and head are the members' rate and head when the class's live
	// completion entry was keyed; gen is that entry's generation.
	rate float64
	head *Flow
	gen  uint32
	// mark stamps the recompute that queued the class for a re-key check,
	// and slot is the class's index in Network.classes while it has
	// members.
	mark int64
	slot int32
}

// regroupShare sets when a recompute regroups its classes wholesale: when
// at least 1/regroupShare of its touched flows changed class. The same
// share of changed classes rebuilds the completion heap.
const regroupShare = 4

// remLess orders two members of one class by remaining bytes, settled to
// now.
func (n *Network) remLess(a, b *Flow) bool {
	n.settleFlow(a)
	n.settleFlow(b)
	return a.remaining < b.remaining
}

func (n *Network) classUp(c *rateClass, i int) {
	h := c.members
	f := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !n.remLess(f, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].clsIdx = int32(i)
		i = p
	}
	h[i] = f
	f.clsIdx = int32(i)
}

func (n *Network) classDown(c *rateClass, i int) {
	h := c.members
	f := h[i]
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		least := l
		if r := l + 1; r < len(h) && n.remLess(h[r], h[l]) {
			least = r
		}
		if !n.remLess(h[least], f) {
			break
		}
		h[i] = h[least]
		h[i].clsIdx = int32(i)
		i = least
	}
	h[i] = f
	f.clsIdx = int32(i)
}

// heapify orders a loose class's members into a heap.
func (n *Network) heapify(c *rateClass) {
	for i := len(c.members)/2 - 1; i >= 0; i-- {
		n.classDown(c, i)
	}
	c.loose = false
}

// joinClass adds f, which carries c's rate, to class c.
func (n *Network) joinClass(c *rateClass, f *Flow) {
	if c.loose {
		n.heapify(c)
	}
	if len(c.members) == 0 {
		c.slot = int32(len(n.classes))
		n.classes = append(n.classes, c)
	}
	f.cls = c
	c.members = append(c.members, f)
	n.classUp(c, len(c.members)-1)
}

// leaveClass removes f from its class. A class left empty leaves
// n.classes, and its completion entry goes stale.
func (n *Network) leaveClass(f *Flow) {
	c := f.cls
	if c.loose {
		n.heapify(c)
	}
	f.cls = nil
	i, last := int(f.clsIdx), len(c.members)-1
	moved := c.members[last]
	c.members[last] = nil
	c.members = c.members[:last]
	if i < last {
		c.members[i] = moved
		moved.clsIdx = int32(i)
		n.classDown(c, i)
		if moved.clsIdx == int32(i) {
			n.classUp(c, i)
		}
	}
	if last == 0 {
		n.unlistClass(c)
	}
}

// unlistClass drops an emptied class from n.classes and makes its
// completion entry stale.
func (n *Network) unlistClass(c *rateClass) {
	c.gen++
	c.head = nil
	last := len(n.classes) - 1
	moved := n.classes[last]
	n.classes[c.slot] = moved
	moved.slot = c.slot
	n.classes[last] = nil
	n.classes = n.classes[:last]
}

// keyEntry records c's head and rate and returns its completion entry at
// the current generation.
func (n *Network) keyEntry(c *rateClass) compEntry {
	h := c.members[0]
	c.head, c.rate = h, h.rate
	return compEntry{c: c, at: n.completionTime(h), id: h.ID, gen: c.gen}
}

// keyClass pushes a fresh completion entry for c, superseding its last.
func (n *Network) keyClass(c *rateClass) {
	c.gen++
	n.comp.push(n.keyEntry(c))
}

// rekeyCompletions refreshes the class index and the completion heap after
// a recompute. Tiny active sets skip both: a direct scan is cheaper than
// maintaining them. Above the threshold only the recompute's touched flows
// are examined: an untouched flow kept its rate and its bottleneck, so its
// class, and that class's key, are still valid unless a touched flow left
// or joined it.
func (n *Network) rekeyCompletions(touched []*Flow) {
	if len(n.active) <= compHeapThreshold {
		if n.heapMode {
			n.heapMode = false
			n.dropClasses()
		}
		return
	}
	rekey := n.rekey[:0]
	if !n.heapMode {
		n.heapMode = true
		rekey = n.regroup(n.active, rekey)
	} else {
		// Queue every class a touched flow is in, and count the flows
		// whose bottleneck moved them to another class.
		stamp, moved := n.recomputes, 0
		for _, f := range touched {
			c := f.cls
			if c != &f.bneck.cls {
				moved++
			}
			if c != nil && c.mark != stamp {
				c.mark = stamp
				rekey = append(rekey, c)
			}
		}
		if regroupShare*moved >= len(touched) {
			rekey = n.regroup(touched, rekey)
		} else {
			rekey = n.moveClasses(touched, rekey)
		}
	}
	// Keep the classes whose head or rate changed: an unchanged class's
	// head has the same absolute completion time, and its entry is valid.
	k := 0
	for _, c := range rekey {
		if len(c.members) == 0 {
			continue
		}
		h := c.members[0]
		if c.head != h || (c.rate != h.rate && !n.staleClassKeys) {
			rekey[k] = c
			k++
		}
	}
	// When most classes moved (one shared bottleneck ripples through the
	// whole component), a wholesale rebuild is cheaper than pushes into a
	// garbage-laden heap: heap init is O(classes) and leaves no stale
	// entries. It also runs when lazily discarded garbage has accumulated
	// past a small multiple of the live entries.
	if regroupShare*k >= len(n.classes) || len(n.comp) > 4*len(n.classes)+64 {
		n.comp = n.comp[:0]
		for _, c := range n.classes {
			c.gen++
			n.comp = append(n.comp, n.keyEntry(c))
		}
		n.comp.init()
	} else {
		for _, c := range rekey[:k] {
			n.keyClass(c)
		}
	}
	clear(rekey)
	n.rekey = rekey[:0]
}

// moveClasses moves each touched flow whose bottleneck changed from its old
// class to its new one. rekey holds the classes the touched flows were in;
// it returns rekey with the classes they joined appended.
func (n *Network) moveClasses(touched []*Flow, rekey []*rateClass) []*rateClass {
	stamp := n.recomputes
	for _, f := range touched {
		c := &f.bneck.cls
		if f.cls == c {
			continue
		}
		if f.cls != nil {
			n.leaveClass(f)
		}
		n.joinClass(c, f)
		if c.mark != stamp {
			c.mark = stamp
			rekey = append(rekey, c)
		}
	}
	return rekey
}

// regroup rebuilds the classes of flows from their bottlenecks. rekey holds
// every class one of the flows is in, and regroup first empties them: all
// of such a class's members are among flows, because they cross its
// bottleneck and so share the flow's component. Then each flow joins its
// bottleneck's class, which keeps its least member first and stays loose.
// It returns rekey with the classes the flows joined appended.
func (n *Network) regroup(flows []*Flow, rekey []*rateClass) []*rateClass {
	for _, c := range rekey {
		clear(c.members)
		c.members = c.members[:0]
		n.unlistClass(c)
	}
	stamp := n.recomputes
	for _, f := range flows {
		c := &f.bneck.cls
		n.settleFlow(f)
		j := len(c.members)
		if j == 0 {
			c.slot = int32(len(n.classes))
			n.classes = append(n.classes, c)
		}
		f.cls = c
		f.clsIdx = int32(j)
		c.members = append(c.members, f)
		if h := c.members[0]; f.remaining < h.remaining {
			c.members[0], c.members[j] = f, h
			f.clsIdx, h.clsIdx = 0, int32(j)
		}
		c.loose = j > 1
		if c.mark != stamp {
			c.mark = stamp
			rekey = append(rekey, c)
		}
	}
	return rekey
}

// dropClasses empties every class as the completion heap goes out of use.
func (n *Network) dropClasses() {
	for _, c := range n.classes {
		for _, f := range c.members {
			f.cls = nil
		}
		clear(c.members)
		c.members = c.members[:0]
		c.loose = false
		c.gen++
		c.head = nil
	}
	clear(n.classes)
	n.classes = n.classes[:0]
	n.comp = n.comp[:0]
}
