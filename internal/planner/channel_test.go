package planner

import (
	"testing"

	"g10sim/internal/units"
)

// evenStarts builds n slots of 1ms each.
func evenStarts(n int) []units.Time {
	s := make([]units.Time, n+1)
	for i := range s {
		s[i] = units.Time(i) * units.Millisecond
	}
	return s
}

func TestChannelForwardEmpty(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	// 1MB at 1GB/s = ~1ms starting at t=0 -> done ~1ms.
	done, ok := c.scheduleForward(0, units.MB, true)
	if !ok {
		t.Fatal("schedule failed")
	}
	lo, hi := 900*units.Microsecond, 1100*units.Microsecond
	if done < lo || done > hi {
		t.Errorf("done = %v, want ~1ms", done)
	}
}

func TestChannelForwardQueuesBehindBookings(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	// Fill the first two slots entirely.
	if _, ok := c.scheduleForward(0, 2*units.MB, true); !ok {
		t.Fatal("first booking failed")
	}
	// The next transfer starting at 0 must finish around 3ms.
	done, ok := c.scheduleForward(0, units.MB, true)
	if !ok {
		t.Fatal("second booking failed")
	}
	if done < 2900*units.Microsecond || done > 3100*units.Microsecond {
		t.Errorf("queued done = %v, want ~3ms", done)
	}
}

func TestChannelPreviewDoesNotBook(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(4)), units.GBps(1))
	d1, _ := c.scheduleForward(0, units.MB, false)
	d2, _ := c.scheduleForward(0, units.MB, false)
	if d1 != d2 {
		t.Errorf("preview mutated state: %v then %v", d1, d2)
	}
}

func TestChannelForwardWraps(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(4)), units.GBps(1))
	// Start near the end: 2MB from t=3.5ms needs 2ms of channel; only
	// 0.5ms remains before total (4ms), so it wraps into the next
	// iteration and completes around 5.5ms.
	done, ok := c.scheduleForward(3500*units.Microsecond, 2*units.MB, true)
	if !ok {
		t.Fatal("wrapped booking failed")
	}
	if done < 5300*units.Microsecond || done > 5700*units.Microsecond {
		t.Errorf("wrapped done = %v, want ~5.5ms", done)
	}
}

func TestChannelForwardRejectsOverload(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(4)), units.GBps(1))
	// 4ms total capacity per lap, 2 laps max => 8MB limit from t=0.
	if _, ok := c.scheduleForward(0, 100*units.MB, true); ok {
		t.Error("overload accepted")
	}
	if _, ok := newChannel(newTimeline(evenStarts(4)), 0).scheduleForward(0, units.MB, true); ok {
		t.Error("zero-bandwidth channel accepted booking")
	}
}

func TestChannelBackwardEmpty(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	// 1MB finishing by 5ms starts ~4ms.
	start, ok := c.scheduleBackward(5*units.Millisecond, units.MB, true)
	if !ok {
		t.Fatal("backward failed")
	}
	if start < 3900*units.Microsecond || start > 4100*units.Microsecond {
		t.Errorf("start = %v, want ~4ms", start)
	}
}

func TestChannelBackwardQueues(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	// Book slot 4 fully; a transfer ending at 5ms must start ~3ms.
	if _, ok := c.scheduleForward(4*units.Millisecond, units.MB, true); !ok {
		t.Fatal("forward fill failed")
	}
	start, ok := c.scheduleBackward(5*units.Millisecond, units.MB, true)
	if !ok {
		t.Fatal("backward failed")
	}
	if start < 2900*units.Microsecond || start > 3100*units.Microsecond {
		t.Errorf("start = %v, want ~3ms", start)
	}
}

func TestChannelBackwardWrapsNegative(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(4)), units.GBps(1))
	// 2MB finishing by 1ms: 1ms available in [0,1ms), the rest wraps to
	// the previous iteration -> start ~-1ms.
	start, ok := c.scheduleBackward(1*units.Millisecond, 2*units.MB, true)
	if !ok {
		t.Fatal("backward wrap failed")
	}
	if start > -900*units.Microsecond || start < -1100*units.Microsecond {
		t.Errorf("start = %v, want ~-1ms", start)
	}
}

func TestChannelBusyFrac(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	if f := c.busyFrac(0, 10*units.Millisecond); f != 0 {
		t.Errorf("fresh channel busyFrac = %v", f)
	}
	// Fill slots 0-4: 5 binary MB at 1 binary GB/s is 5/1.024 ≈ 4.88ms.
	if _, ok := c.scheduleForward(0, 5*units.MB, true); !ok {
		t.Fatal("booking failed")
	}
	if f := c.busyFrac(0, 5*units.Millisecond); f < 0.95 || f > 1.0 {
		t.Errorf("busyFrac over booked window = %v, want ~0.977", f)
	}
	if f := c.busyFrac(5*units.Millisecond, 10*units.Millisecond); f > 0.01 {
		t.Errorf("busyFrac over free window = %v, want ~0", f)
	}
	full := c.busyFrac(0, 10*units.Millisecond)
	if full < 0.46 || full > 0.52 {
		t.Errorf("busyFrac over all = %v, want ~0.49", full)
	}
}

func TestChannelSlotOf(t *testing.T) {
	c := newChannel(newTimeline(evenStarts(10)), units.GBps(1))
	cases := []struct {
		t    units.Time
		want int
	}{
		{0, 0},
		{500 * units.Microsecond, 0},
		{units.Millisecond, 1},
		{9500 * units.Microsecond, 9},
		{20 * units.Millisecond, 9}, // clamped
	}
	for _, cse := range cases {
		if got := c.tl.slotOf(cse.t); got != cse.want {
			t.Errorf("slotOf(%v) = %d, want %d", cse.t, got, cse.want)
		}
	}
}

func TestChannelConservation(t *testing.T) {
	// Total booked seconds never exceed the channel's capacity per lap ×2.
	c := newChannel(newTimeline(evenStarts(8)), units.GBps(1))
	var booked float64
	for i := 0; i < 100; i++ {
		if _, ok := c.scheduleForward(units.Time(i%8)*units.Millisecond, 512*units.KB, true); ok {
			booked += 0.5e-3
		}
	}
	var free float64
	for _, f := range c.free {
		free += f
	}
	total := 8e-3
	if booked > total+1e-9 {
		t.Errorf("booked %v seconds on a %v-second channel", booked, total)
	}
	if free < -1e-9 {
		t.Errorf("negative free time: %v", free)
	}
}
