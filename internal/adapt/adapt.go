// Package adapt is the online replanning layer for G10's smart tensor
// migrations. G10's plan is computed offline assuming exclusive SSD and
// host bandwidth (§4); on a shared flash array the realized transfer times
// stretch by the tenant's contention share and planned prefetches silently
// miss their deadlines. The controller closes that loop without re-running
// the planner: each iteration it folds the machine's observed per-direction
// lateness (gpu.LatenessSignal) into an EMA of the bandwidth-inflation
// factor, and re-times the next iteration's instrumented instructions
// against it — prefetches issue early enough that their reads, slowed by
// the observed share, still meet the plan's deadlines; evictions are
// deferred while the write path is idle. Adaptation is per-iteration, not
// per-instruction: one iteration is the shortest window over which the
// contention share is a stable, measurable quantity (a single transfer's
// slowdown is mostly queueing noise), and re-timing between iterations
// keeps the instruction stream — and with it the simulation — a pure
// function of the tenant's own observation history.
package adapt

import (
	"g10sim/internal/gpu"
	"g10sim/internal/planner"
)

// Config tunes the controller. The zero value selects the defaults.
type Config struct {
	// Alpha is the EMA weight of the newest iteration's inflation sample
	// (default 0.5: the last two iterations dominate, so the controller
	// tracks admissions and departures of co-tenants within a few
	// iterations).
	Alpha float64
	// Deadband is the inflation above 1 the controller ignores (default
	// 0.15). Self-contention between a tenant's own overlapping chunk
	// flows produces small inflations even alone on the device; within the
	// deadband the program is left untouched, so an uncontended adaptive
	// run replays the static plan bit for bit.
	Deadband float64
	// MaxInflation clamps the fetch re-timing factor (default 8): beyond
	// it, earlier issue just parks transfers in the metadata queues.
	MaxInflation float64
	// DeferIdleBelow enables eviction deferral while the observed evict
	// inflation stays at or below it (default 1.05: the write path is
	// effectively private).
	DeferIdleBelow float64
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.15
	}
	if c.MaxInflation < 1 {
		c.MaxInflation = 8
	}
	if c.DeferIdleBelow < 1 {
		c.DeferIdleBelow = 1.05
	}
	return c
}

// Controller folds per-iteration lateness signals into per-direction
// inflation EMAs and re-times programs against them. One controller serves
// one tenant; it carries per-run state.
type Controller struct {
	cfg Config
	// fetchEMA/evictEMA track the per-direction inflation; sampled reports
	// whether any signal with flows has arrived yet.
	fetchEMA, evictEMA   float64
	fetchSeen, evictSeen bool
	// base is the static plan the first NextProgram call saw; every
	// re-timing is derived from it, and the controller hands it back when
	// contention subsides.
	base *planner.Program
}

// New builds a controller.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), fetchEMA: 1, evictEMA: 1}
}

// Observe folds one iteration's signal into the EMAs. Directions with no
// completed flows carry no information and leave their EMA untouched.
func (c *Controller) Observe(sig gpu.LatenessSignal) {
	if sig.FetchFlows > 0 {
		c.fetchEMA = c.fold(c.fetchEMA, sig.FetchInflation(), &c.fetchSeen)
	}
	if sig.EvictFlows > 0 {
		c.evictEMA = c.fold(c.evictEMA, sig.EvictInflation(), &c.evictSeen)
	}
}

func (c *Controller) fold(ema, sample float64, seen *bool) float64 {
	if !*seen {
		*seen = true
		return sample
	}
	return c.cfg.Alpha*sample + (1-c.cfg.Alpha)*ema
}

// FetchInflation reports the smoothed fetch-direction inflation (>= 1).
func (c *Controller) FetchInflation() float64 { return c.fetchEMA }

// EvictInflation reports the smoothed evict-direction inflation (>= 1).
func (c *Controller) EvictInflation() float64 { return c.evictEMA }

// Retiming derives the re-timing the current EMAs call for. ok is false
// when they call for nothing: no signal yet, or everything inside the
// deadband with a busy (non-deferrable) write path.
func (c *Controller) Retiming() (planner.Retiming, bool) {
	var rt planner.Retiming
	rt.FetchInflation = 1
	if c.fetchSeen && c.fetchEMA > 1+c.cfg.Deadband {
		rt.FetchInflation = c.fetchEMA
		if rt.FetchInflation > c.cfg.MaxInflation {
			rt.FetchInflation = c.cfg.MaxInflation
		}
	}
	rt.EvictInflation = c.evictEMA
	rt.DeferEvictions = c.evictSeen && c.evictEMA <= c.cfg.DeferIdleBelow
	if rt.FetchInflation <= 1 && !rt.DeferEvictions {
		return planner.Retiming{FetchInflation: 1, EvictInflation: 1}, false
	}
	return rt, true
}

// NextProgram re-times the plan against the controller's current view, or
// returns nil when the program should stay as it is. The first call's cur
// is the static plan; it is kept as the anchor, so successive re-timings
// never compound factors and a quiet device reverts to the plan exactly.
func (c *Controller) NextProgram(cur *planner.Program) *planner.Program {
	if c.base == nil {
		c.base = cur
	}
	rt, ok := c.Retiming()
	if !ok {
		if cur != c.base {
			return c.base // contention subsided: back to the static plan
		}
		return nil
	}
	np := c.base.Retime(rt)
	if np == cur {
		return nil
	}
	return np
}
