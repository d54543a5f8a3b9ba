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
	tl   *timeline
	free []float64 // free seconds remaining per slot
	bw   float64   // bytes/sec
	// scratch holds the pending draws of one schedule call; reused across
	// calls to keep the (very frequent) previews allocation-free.
	scratch []draw
}

// draw is one slot's share of a booking being placed.
type draw struct {
	slot int
	amt  float64
}

// newChannel opens a channel over tl with every slot free.
func newChannel(tl *timeline, bw units.Bandwidth) *channel {
	return &channel{tl: tl, free: append([]float64(nil), tl.sec...), bw: float64(bw)}
}

// freeAfter reports the free seconds of slot k past time t, assuming the
// slot's busy time is spread uniformly.
func (c *channel) freeAfter(k int, t units.Time) float64 {
	s, e := c.tl.starts[k], c.tl.starts[k+1]
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
	s, e := c.tl.starts[k], c.tl.starts[k+1]
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
	nslots := c.tl.n
	k := c.tl.slotOf(t)
	pos := t
	for step := 0; step < 2*nslots; step++ {
		idx := k % nslots
		lap := units.Time(k/nslots) * c.tl.total
		slotEnd := c.tl.starts[idx+1] + lap
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
	pos := min(deadline, c.tl.total)
	k := c.tl.slotOf(pos - 1)
	for step := 0; step < 2*c.tl.n; step++ {
		idx := c.tl.mod(k)
		var lap units.Time
		if k < 0 {
			lap = -c.tl.total
		}
		slotStart := c.tl.starts[idx] + lap
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
	var window, busy float64
	for _, w := range c.tl.wrapSplit(t0, t1) {
		k0, k1 := c.tl.touched(w)
		for k := k0; k < k1; k++ {
			s, e := max(c.tl.starts[k], w.a), min(c.tl.starts[k+1], w.b)
			if e <= s {
				continue
			}
			frac := float64(e-s) / float64(c.tl.starts[k+1]-c.tl.starts[k])
			span := (e - s).Seconds()
			window += span
			busy += span - c.free[k]*frac
		}
	}
	if window <= 0 {
		return 0
	}
	if busy < 0 {
		busy = 0
	}
	return busy / window
}
