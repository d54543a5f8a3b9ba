package planner

import (
	"g10sim/internal/units"
)

// channel is the planner's fluid model of one migration channel's bandwidth
// over the estimated iteration timeline (Algorithm 1's "I/O bandwidth
// utilization" state). Time is bucketed by kernel slots; each slot holds a
// budget of transferable seconds that bookings consume. Bookings placed
// where the channel is busy spill into later slots — modeling queueing —
// and the timeline wraps cyclically so that a global tensor's iteration-
// crossing migration lands in the next iteration's early slots.
type channel struct {
	starts []units.Time // kernel boundaries; starts[n] = iteration total
	free   []float64    // free seconds remaining per slot
	span   []float64    // slot lengths in seconds
	bw     float64      // bytes/sec
	total  units.Time
	// scratch holds the pending draws of one schedule call; reused across
	// calls to keep the (very frequent) previews allocation-free.
	scratch []draw
}

// draw is one slot's share of a booking being placed.
type draw struct {
	slot int
	amt  float64
}

func newChannel(starts []units.Time, bw units.Bandwidth) *channel {
	n := len(starts) - 1
	c := &channel{
		starts: starts,
		free:   make([]float64, n),
		span:   make([]float64, n),
		bw:     float64(bw),
		total:  starts[n],
	}
	for k := 0; k < n; k++ {
		c.span[k] = (starts[k+1] - starts[k]).Seconds()
		c.free[k] = c.span[k]
	}
	return c
}

func (c *channel) slots() int { return len(c.free) }

// slotOf locates the kernel slot containing time t (clamped).
func (c *channel) slotOf(t units.Time) int {
	n := c.slots()
	if t <= 0 {
		return 0
	}
	if t >= c.total {
		return n - 1
	}
	// Binary search: last k with starts[k] <= t.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// freeAfter reports the free seconds of slot k past time t, assuming the
// slot's busy time is spread uniformly.
func (c *channel) freeAfter(k int, t units.Time) float64 {
	s, e := c.starts[k], c.starts[k+1]
	if t <= s {
		return c.free[k]
	}
	if t >= e {
		return 0
	}
	frac := float64(e-t) / float64(e-s)
	return c.free[k] * frac
}

// freeBefore is the symmetric helper for backward placement.
func (c *channel) freeBefore(k int, t units.Time) float64 {
	s, e := c.starts[k], c.starts[k+1]
	if t >= e {
		return c.free[k]
	}
	if t <= s {
		return 0
	}
	frac := float64(t-s) / float64(e-s)
	return c.free[k] * frac
}

// scheduleForward books a transfer of n bytes starting no earlier than t,
// consuming free channel time slot by slot (wrapping once past the end of
// the iteration). Returns the completion time — beyond total for wrapped
// bookings — and false if the channel cannot absorb the transfer within one
// extra iteration. commit=false previews without booking.
func (c *channel) scheduleForward(t units.Time, n units.Bytes, commit bool) (units.Time, bool) {
	if c.bw <= 0 {
		return 0, false
	}
	need := float64(n) / c.bw // seconds of channel time
	if need == 0 {
		return t, true
	}
	draws := c.scratch[:0]
	defer func() { c.scratch = draws[:0] }()
	nslots := c.slots()
	k := c.slotOf(t)
	pos := t
	for step := 0; step < 2*nslots; step++ {
		idx := k % nslots
		lap := units.Time(k/nslots) * c.total
		slotEnd := c.starts[idx+1] + lap
		avail := c.freeAfter(idx, pos-lap)
		if avail >= need {
			// Completion inside this slot: advance proportionally to the
			// remaining free density.
			var done units.Time
			if avail > 0 {
				remFrac := need / avail
				done = pos + units.Time(float64(slotEnd-pos)*remFrac)
			} else {
				done = slotEnd
			}
			draws = append(draws, draw{idx, need})
			if commit {
				for _, d := range draws {
					c.free[d.slot] -= d.amt
					if c.free[d.slot] < 0 {
						c.free[d.slot] = 0
					}
				}
			}
			return done, true
		}
		if avail > 0 {
			draws = append(draws, draw{idx, avail})
			need -= avail
		}
		k++
		pos = slotEnd
	}
	return 0, false
}

// scheduleBackward books a transfer of n bytes finishing no later than
// deadline, walking slots backward (wrapping once below zero for
// iteration-crossing prefetches). Returns the start time — negative times
// denote the previous iteration — and false if it cannot fit. commit=false
// previews.
func (c *channel) scheduleBackward(deadline units.Time, n units.Bytes, commit bool) (units.Time, bool) {
	if c.bw <= 0 {
		return 0, false
	}
	need := float64(n) / c.bw
	if need == 0 {
		return deadline, true
	}
	draws := c.scratch[:0]
	defer func() { c.scratch = draws[:0] }()
	nslots := c.slots()
	pos := deadline
	if pos > c.total {
		pos = c.total
	}
	k := c.slotOf(pos - 1)
	for step := 0; step < 2*nslots; step++ {
		idx := ((k % nslots) + nslots) % nslots
		var lap units.Time
		if k < 0 {
			lap = -c.total
		}
		slotStart := c.starts[idx] + lap
		avail := c.freeBefore(idx, pos-lap)
		if avail >= need {
			var start units.Time
			if avail > 0 {
				remFrac := need / avail
				start = pos - units.Time(float64(pos-slotStart)*remFrac)
			} else {
				start = slotStart
			}
			draws = append(draws, draw{idx, need})
			if commit {
				for _, d := range draws {
					c.free[d.slot] -= d.amt
					if c.free[d.slot] < 0 {
						c.free[d.slot] = 0
					}
				}
			}
			return start, true
		}
		if avail > 0 {
			draws = append(draws, draw{idx, avail})
			need -= avail
		}
		k--
		pos = slotStart
	}
	return 0, false
}

// busyFrac reports the booked fraction of the channel over [t0, t1]
// (clamped to the iteration, wrapping when t1 > total).
func (c *channel) busyFrac(t0, t1 units.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	var window, busy float64
	add := func(a, b units.Time) {
		if b <= a {
			return
		}
		k0, k1 := c.slotOf(a), c.slotOf(b-1)
		for k := k0; k <= k1; k++ {
			s, e := c.starts[k], c.starts[k+1]
			if s < a {
				s = a
			}
			if e > b {
				e = b
			}
			if e <= s {
				continue
			}
			frac := float64(e-s) / float64(c.starts[k+1]-c.starts[k])
			span := (e - s).Seconds()
			window += span
			busy += span - c.free[k]*frac
		}
	}
	if t1 > c.total {
		add(t0, c.total)
		add(0, t1-c.total)
	} else {
		add(t0, t1)
	}
	if window <= 0 {
		return 0
	}
	if busy < 0 {
		busy = 0
	}
	return busy / window
}
