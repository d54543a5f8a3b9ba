// Command perfbench is the repository's benchmark: it times the simulator's
// layers on three seeded workloads and checks the simulated outputs.
//
//	perfbench --workload train|fleet|serve --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (seeded input generation plus
// the catalogue analyses the inputs derive from), then runs passes back to
// back for S seconds — a closed loop with one client; arrivals inside each
// simulation are open-loop Poisson in simulated time. --trace 0 reports the
// end-to-end metrics; --trace 1 spends half the budget untraced and half
// traced (spans around every layer call, a CPU profile) and reports the
// per-layer metrics. Every pass is checked against the simulation's
// invariants and fingerprinted; the last stdout line is one JSON object.
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// Set-up takes milliseconds, so it is repeated for at least minSetups
	// times and setupBudget, and reported as a median.
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
	// minPasses bounds the sample each reported median is taken over.
	minPasses = 3
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// sample is one measured pass.
type sample struct {
	wall, allocMB float64
	fp            string
	jobs, failed  int
	sim, layers   metrics
	cpu           map[string]int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train, fleet or serve")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload train|fleet|serve --seed N --seconds S --trace 0|1")
		return 2
	}

	w, setupS, err := setUp(newW, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	var plain, traced []sample
	var first *pass
	collect := func(budget time.Duration, atLeast int, tr bool) ([]sample, error) {
		var out []sample
		for end := time.Now().Add(budget); len(out) < atLeast || time.Now().Before(end); {
			s, p, err := measure(w, tr)
			if err != nil {
				return out, err
			}
			if first == nil {
				first = p
			}
			out = append(out, s)
		}
		return out, nil
	}
	if *trace == 0 {
		plain, err = collect(budget, minPasses, false)
	} else if plain, err = collect(budget/2, 1, false); err == nil {
		traced, err = collect(budget/2, 1, true)
	}
	all := append(append([]sample(nil), plain...), traced...)
	res := result{Metrics: metrics{}}
	for _, s := range all {
		res.Attempted += s.jobs
		res.Failed += s.failed
		if err == nil && s.fp != all[0].fp {
			err = fmt.Errorf("simulated outputs differ between passes: %s vs %s", all[0].fp, s.fp)
		}
	}
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		printResult(stdout, res)
		return 1
	}
	fmt.Fprintf(stdout, "fingerprint %s seed=%d passes=%d sha256=%s\n", *name, *seed, len(all), all[0].fp)

	walls := func(ss []sample) float64 { return median(pick(ss, func(s sample) float64 { return s.wall })) }
	if *trace == 0 {
		m := res.Metrics
		m.set("wall_s", "s", walls(plain))
		m.set("setup_s", "s", setupS)
		m.set("alloc_mb", "MB", median(pick(plain, func(s sample) float64 { return s.allocMB })))
		m.set("max_rss_mb", "MB", maxRSSMB())
		m.set("ok_frac", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		for k, v := range plain[0].sim {
			m[k] = v
		}
	} else {
		m := res.Metrics
		for k := range traced[0].layers {
			v := traced[0].layers[k]
			v.Value = median(pick(traced, func(s sample) float64 { return s.layers[k].Value }))
			m[k] = v
		}
		cpu := map[string]int64{}
		var total int64
		for _, s := range traced {
			for b, n := range s.cpu {
				cpu[b] += n
				total += n
			}
		}
		for _, b := range cpuBuckets {
			m.set("cpu."+b+"_frac", "ratio", float64(cpu[b])/float64(max(1, total)))
		}
		m.set("trace.overhead_s", "s", walls(traced)-walls(plain))
		for _, line := range predictions(*name, first, m, walls(traced)) {
			fmt.Fprintln(stdout, line)
		}
	}
	printResult(stdout, res)
	return 0
}

// setUp builds the workload's inputs repeatedly and reports the median
// set-up time in seconds, keeping the last build.
func setUp(newW func(int64) (workload, error), seed int64) (workload, float64, error) {
	var times []float64
	var w workload
	for start := time.Now(); len(times) < minSetups || (time.Since(start) < setupBudget && len(times) < maxSetups); {
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = newW(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// measure runs one pass after a full collection (so each pass starts from
// the same heap), checks its invariants and fingerprints its outputs. A
// traced pass also records layer spans and a CPU profile of the pass alone.
func measure(w workload, traced bool) (sample, *pass, error) {
	runtime.GC()
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = &tracer{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return sample{}, nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p, err := w.run(tr)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return sample{}, nil, err
	}
	if err := w.check(p); err != nil {
		return sample{}, nil, fmt.Errorf("invariant violated: %w", err)
	}
	s := sample{wall: wall.Seconds(), allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
	v := w.sim(p)
	s.sim = simMetrics(v)
	s.jobs = len(v.jobs)
	for _, j := range v.jobs {
		if j.failed {
			s.failed++
		}
	}
	if s.fp, err = fingerprint(p); err != nil {
		return sample{}, nil, err
	}
	if traced {
		s.layers = layerMetrics(p, tr)
		if s.cpu, err = selfTime(prof.Bytes()); err != nil {
			return sample{}, nil, err
		}
	}
	return s, p, nil
}

// predictions checks what each workload is expected to show in the traced
// run, printed for the record (a later change may legitimately move them).
func predictions(name string, p *pass, m metrics, tracedWall float64) []string {
	var out []string
	say := func(what string, ok bool, v float64) {
		verdict := "holds"
		if !ok {
			verdict = "does not hold"
		}
		out = append(out, fmt.Sprintf("prediction %s: %s: %s (%.6g)", name, what, verdict, v))
	}
	switch name {
	case "train":
		var faults int64
		for _, c := range p.clusters {
			if r := c.Tenants[0]; r.Policy == "Base UVM" {
				faults += r.Faults
			}
		}
		say("uvm.faults > 0 under Base UVM", faults > 0, float64(faults))
	case "fleet":
		share := m["planner.plan_ms"].Value / 1e3 / tracedWall
		say("planner spans are the majority of wall_s", share > 0.5, share)
		say("ssd.gc_relocated > 0", m["ssd.gc_relocated"].Value > 0, m["ssd.gc_relocated"].Value)
		var failed int
		for _, r := range p.clusters[0].Tenants {
			if r.Failed {
				failed++
			}
		}
		say("no fleet job fails", failed == 0, float64(failed))
	case "serve":
		say("planner.calls = 0", m["planner.calls"].Value == 0, m["planner.calls"].Value)
		var ssdSum float64
		for _, k := range []string{"host_write_gb", "nand_write_gb", "write_amp", "gc_relocated", "gc_runs", "erases"} {
			ssdSum += m["ssd."+k].Value
		}
		say("every ssd.* counter is 0", ssdSum == 0, ssdSum)
	}
	return out
}

func pick(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // metrics hold only finite floats and strings
	}
	fmt.Fprintln(w, string(b))
}
