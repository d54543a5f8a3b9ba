package main

import (
	"errors"
	"fmt"

	"g10sim/internal/gpu"
	"g10sim/internal/units"
)

// check verifies the physical invariants of every simulation in a pass,
// independently of how the engine computed them. reqs is the serving trace
// the pass's inference runs replayed (nil for training workloads).
func check(p *pass, reqs []gpu.RequestSpec) error {
	var errs []error
	for i, c := range p.clusters {
		if err := checkCluster(c); err != nil {
			errs = append(errs, fmt.Errorf("cluster %d: %w", i, err))
		}
	}
	for i, s := range p.serves {
		if err := checkServe(s, reqs); err != nil {
			errs = append(errs, fmt.Errorf("serving run %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// checkCluster: every job finished or failed with a reason, its span is
// ordered and inside the makespan, its measured iteration took at least its
// ideal (stall-free) time, and the array wrote at least what the host sent.
func checkCluster(c gpu.ClusterResult) error {
	if len(c.Spans) != len(c.Tenants) {
		return fmt.Errorf("%d spans for %d jobs", len(c.Spans), len(c.Tenants))
	}
	for i, r := range c.Tenants {
		s := c.Spans[i]
		switch {
		case r.Failed && r.FailReason == "":
			return fmt.Errorf("job %d failed without a reason", i)
		case s.Arrival < 0 || s.Finish < s.Arrival:
			return fmt.Errorf("job %d span [%v, %v] is not ordered", i, s.Arrival, s.Finish)
		case units.Duration(s.Finish) > c.Makespan:
			return fmt.Errorf("job %d finishes at %v after the makespan %v", i, s.Finish, c.Makespan)
		case r.Failed:
		case r.IterationTime <= 0 || r.IterationTime < r.IdealTime:
			return fmt.Errorf("job %d iteration %v below its ideal %v", i, r.IterationTime, r.IdealTime)
		case units.Duration(s.Finish-s.Arrival) < r.IterationTime:
			return fmt.Errorf("job %d span %v shorter than its iteration %v", i, s.Finish-s.Arrival, r.IterationTime)
		}
	}
	if st := c.SSDStats; st.NANDWriteBytes < st.HostWriteBytes {
		return fmt.Errorf("flash wrote %d NAND bytes for %d host bytes", st.NANDWriteBytes, st.HostWriteBytes)
	}
	return nil
}

// checkServe: every request finished with arrival ≤ first token ≤ finish ≤
// makespan, took at least its ideal latency, and the run's KV totals equal
// the per-request sums.
func checkServe(s gpu.InferenceResult, reqs []gpu.RequestSpec) error {
	if len(s.Requests) != len(reqs) {
		return fmt.Errorf("%d results for %d requests", len(s.Requests), len(reqs))
	}
	var pre, off, rel int64
	for i, rq := range s.Requests {
		switch {
		case rq.Arrival != reqs[i].Arrival:
			return fmt.Errorf("request %d arrived at %v, not %v", i, rq.Arrival, reqs[i].Arrival)
		case rq.Finish <= 0 || rq.FirstToken < rq.Arrival || rq.Finish < rq.FirstToken:
			return fmt.Errorf("request %d not finished in order: arrival %v, first token %v, finish %v",
				i, rq.Arrival, rq.FirstToken, rq.Finish)
		case units.Duration(rq.Finish) > s.Makespan:
			return fmt.Errorf("request %d finishes at %v after the makespan %v", i, rq.Finish, s.Makespan)
		case rq.Finish-rq.Arrival < idealLatency(reqs[i]):
			return fmt.Errorf("request %d latency %v below its ideal %v", i, rq.Finish-rq.Arrival, idealLatency(reqs[i]))
		}
		pre += int64(rq.Preempts)
		off += int64(rq.Offloads)
		rel += int64(rq.Reloads)
	}
	if pre != s.Preemptions || off != s.Offloads || rel != s.Reloads {
		return fmt.Errorf("KV totals %d/%d/%d preempt/offload/reload, per-request sums %d/%d/%d",
			s.Preemptions, s.Offloads, s.Reloads, pre, off, rel)
	}
	return nil
}
