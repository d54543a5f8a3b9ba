// Command g10bench regenerates the paper's evaluation figures as text
// tables: the §3 characterisation (Figures 2–4), the §7 performance study
// (Figures 11–19), the §7.7 SSD-lifetime analysis, and the cluster-engine
// studies — the §6 multi-GPU grid (true co-simulation vs the legacy static
// bandwidth split) and the heterogeneous co-location study.
//
// Examples:
//
//	g10bench -fig 11                 # end-to-end normalized performance
//	g10bench -fig all                # the full harness (takes a while)
//	g10bench -fig 15 -models BERT    # one sweep, one model
//	g10bench -fig 11 -short          # shrunken fast mode
//	g10bench -fig multigpu -short    # cosim-vs-static multi-GPU comparison
//	g10bench -fig colocate -short    # heterogeneous jobs on one array
//	g10bench -fig all -json BENCH_figures.json   # machine-readable timings
//	                                 # (includes the cluster-engine figures)
//	g10bench -bench -short -workers 1 -json BENCH_smoke.json \
//	         -gate BENCH_baseline.json           # CI regression gate: run the
//	                                 # headline figures once, compare against
//	                                 # the committed baseline (scaled by a
//	                                 # machine-speed calibration), fail >20%
//	                                 # or on any engine work-counter change
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"g10sim/internal/experiments"
	"g10sim/internal/gpu"
)

var figures = []struct {
	name string
	run  func(*experiments.Session) error
}{
	{"2", wrap(experiments.Figure2)},
	{"3", wrap(experiments.Figure3)},
	{"4", wrap(experiments.Figure4)},
	{"11", wrap(experiments.Figure11)},
	{"12", wrap(experiments.Figure12)},
	{"13", wrap(experiments.Figure13)},
	{"14", wrap(experiments.Figure14)},
	{"15", wrap(experiments.Figure15)},
	{"16", wrap(experiments.Figure16)},
	{"17", wrap(experiments.Figure17)},
	{"18", wrap(experiments.Figure18)},
	{"19", wrap(experiments.Figure19)},
	{"lifetime", wrap(experiments.SSDLifetime)},
	{"multigpu", wrap(experiments.MultiGPU)},
	{"colocate", wrap(experiments.Colocate)},
	{"fleet", wrap(experiments.Fleet)},
	{"adapt", wrap(experiments.Adapt)},
	{"scaling", wrap(experiments.Scaling)},
	{"maxminfill", wrap(experiments.MaxMinFill)},
	{"inference", wrap(experiments.Inference)},
	{"faults", wrap(experiments.Faults)},
}

func wrap[T any](f func(*experiments.Session) ([]T, error)) func(*experiments.Session) error {
	return func(s *experiments.Session) error {
		_, err := f(s)
		return err
	}
}

// benchRecord is one figure's timing in the BENCH_*.json perf-trajectory
// format: a flat list of named ns-per-regeneration samples plus run
// metadata, so successive commits' files can be diffed or plotted.
type benchRecord struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

type benchReport struct {
	Suite      string        `json:"suite"`
	Short      bool          `json:"short"`
	Workers    int           `json:"workers"`
	Models     []string      `json:"models,omitempty"`
	Benchmarks []benchRecord `json:"benchmarks"`
	TotalNs    int64         `json:"total_ns"`
	// Engine reports the engine-internal work counters summed over every
	// cluster simulation the suite ran (recompute/succession/progress/reap
	// and epoch-TLB tallies) — the O(events) evidence alongside the wall
	// times. Omitted when the selected figures ran no cluster.
	Engine *engineRecord `json:"engine_stats,omitempty"`
	// CalibrationNs is the wall time of a fixed CPU-bound loop measured in
	// the same process (-bench mode): the regression gate scales a committed
	// baseline by the calibration ratio, so a slower or faster CI machine
	// does not read as a code regression or mask one.
	CalibrationNs int64 `json:"calibration_ns,omitempty"`
}

// trajectoryFile is BENCH_trajectory.json: the machine-readable per-PR
// bench history. Each entry is one labeled benchReport; `-trajectory`
// appends the current run (replacing an existing entry with the same
// label, so re-running a PR's bench refreshes rather than duplicates).
// BENCH.md documents the format and the provenance of historical entries.
type trajectoryFile struct {
	Format  int               `json:"format"`
	Entries []trajectoryEntry `json:"entries"`
}

// trajectoryEntry keeps its report as raw JSON, so historical entries
// round-trip with every key they were recorded with — including fields
// benchReport no longer has.
type trajectoryEntry struct {
	Label  string          `json:"label"`
	Note   string          `json:"note,omitempty"`
	Report json.RawMessage `json:"report"`
}

// appendTrajectory folds rep into the trajectory file under label.
func appendTrajectory(path, label, note string, rep benchReport) error {
	var tf trajectoryFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &tf); err != nil {
			return fmt.Errorf("decoding %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if tf.Format == 0 {
		tf.Format = 1
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	entry := trajectoryEntry{Label: label, Note: note, Report: raw}
	replaced := false
	for i := range tf.Entries {
		if tf.Entries[i].Label == label {
			tf.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		tf.Entries = append(tf.Entries, entry)
	}
	out, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// engineRecord is the JSON shape of gpu.EngineStats in bench reports.
type engineRecord struct {
	FlowRecomputes     int64 `json:"flow_recomputes"`
	FlowSuccessions    int64 `json:"flow_successions"`
	ProgressTouches    int64 `json:"progress_touches"`
	ReapScans          int64 `json:"reap_scans"`
	TLBEpochShootdowns int64 `json:"tlb_epoch_shootdowns"`
	FillRounds         int64 `json:"fill_rounds"`
	FillResScans       int64 `json:"fill_res_scans"`
	FrontierReuses     int64 `json:"frontier_reuses"`
	FlowAllocs         int64 `json:"flow_allocs"`
	TenantAborts       int64 `json:"tenant_aborts"`
	TenantRestarts     int64 `json:"tenant_restarts"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
}

// headlineFigures is the -bench suite: the figures whose wall time the
// BENCH.md trajectory and the CI regression gate track.
const headlineFigures = "11,multigpu,colocate,fleet,adapt,scaling,maxminfill,inference,faults"

// calibrate times a fixed xorshift loop, a machine-speed yardstick for
// scaling committed baselines across runner generations.
func calibrate() int64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // defeat dead-code elimination
		fmt.Fprintln(os.Stderr, x)
	}
	return time.Since(t0).Nanoseconds()
}

// gateDelta is one figure's baseline-vs-current comparison in the delta
// artifact the CI gate publishes.
type gateDelta struct {
	Name             string  `json:"name"`
	BaselineNs       int64   `json:"baseline_ns"`
	ScaledBaselineNs int64   `json:"scaled_baseline_ns"`
	CurrentNs        int64   `json:"current_ns"`
	Ratio            float64 `json:"ratio"`
	Regressed        bool    `json:"regressed"`
}

// counterDelta is one engine work counter whose value differs from the
// baseline's.
type counterDelta struct {
	Name     string `json:"name"`
	Baseline int64  `json:"baseline"`
	Current  int64  `json:"current"`
}

type gateReport struct {
	Tolerance   float64        `json:"tolerance"`
	CalibScale  float64        `json:"calibration_scale"`
	Deltas      []gateDelta    `json:"deltas"`
	Regressions int            `json:"regressions"`
	EngineDrift []counterDelta `json:"engine_drift,omitempty"`
}

// engineDrift lists the engine counters whose values differ between base
// and cur, in engineRecord field order. A nil base skips the check; a nil
// cur reads as all zeros.
func engineDrift(base, cur *engineRecord) []counterDelta {
	if base == nil {
		return nil
	}
	if cur == nil {
		cur = &engineRecord{}
	}
	bv, cv := reflect.ValueOf(*base), reflect.ValueOf(*cur)
	var out []counterDelta
	for i := 0; i < bv.NumField(); i++ {
		if b, c := bv.Field(i).Int(), cv.Field(i).Int(); b != c {
			name, _, _ := strings.Cut(bv.Type().Field(i).Tag.Get("json"), ",")
			out = append(out, counterDelta{Name: name, Baseline: b, Current: c})
		}
	}
	return out
}

// runGate compares the current report against a committed baseline: each
// figure's wall time may exceed the (machine-speed-scaled) baseline by at
// most the tolerance factor, and every engine work counter must equal the
// baseline's exactly (a baseline without engine_stats skips that check).
// Work counts are noise-free, so a change that alters engine work has to
// refresh the baseline on purpose. The full comparison is written to
// outPath as the CI artifact; any regression or counter drift is an error.
func runGate(cur benchReport, baselinePath, outPath string, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decoding %s: %w", baselinePath, err)
	}
	if base.Short != cur.Short {
		return fmt.Errorf("baseline short=%v but this run short=%v; compare like with like", base.Short, cur.Short)
	}
	if base.Workers != cur.Workers {
		return fmt.Errorf("baseline workers=%d but this run workers=%d; compare like with like", base.Workers, cur.Workers)
	}
	if fmt.Sprint(base.Models) != fmt.Sprint(cur.Models) {
		return fmt.Errorf("baseline models=%v but this run models=%v; compare like with like", base.Models, cur.Models)
	}
	scale := 1.0
	if base.CalibrationNs > 0 && cur.CalibrationNs > 0 {
		scale = float64(cur.CalibrationNs) / float64(base.CalibrationNs)
	}
	baseNs := map[string]int64{}
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.Ns
	}
	rep := gateReport{Tolerance: tolerance, CalibScale: scale}
	matched := map[string]bool{}
	for _, b := range cur.Benchmarks {
		bn, ok := baseNs[b.Name]
		if !ok {
			continue // new figure: no baseline yet
		}
		matched[b.Name] = true
		scaled := int64(float64(bn) * scale)
		d := gateDelta{Name: b.Name, BaselineNs: bn, ScaledBaselineNs: scaled, CurrentNs: b.Ns}
		if scaled > 0 {
			d.Ratio = float64(b.Ns) / float64(scaled)
		}
		// An absolute slack absorbs scheduler jitter on sub-100ms figures,
		// where a few preempted milliseconds dwarf the relative tolerance.
		const slackNs = 75e6
		d.Regressed = float64(b.Ns) > float64(scaled)*tolerance+slackNs
		if d.Regressed {
			rep.Regressions++
		}
		rep.Deltas = append(rep.Deltas, d)
		fmt.Printf("gate: %-16s baseline %8.0fms (scaled %8.0fms) current %8.0fms ratio %.2f%s\n",
			d.Name, float64(bn)/1e6, float64(scaled)/1e6, float64(b.Ns)/1e6, d.Ratio,
			map[bool]string{true: "  REGRESSED", false: ""}[d.Regressed])
	}
	rep.EngineDrift = engineDrift(base.Engine, cur.Engine)
	if outPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding gate report: %w", err)
		}
		out = append(out, '\n')
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", outPath, err)
		}
	}
	// A baseline entry with no current counterpart means gate coverage
	// silently shrank (a renamed or dropped figure) — refuse, so the
	// baseline is refreshed deliberately instead.
	for _, b := range base.Benchmarks {
		if !matched[b.Name] {
			return fmt.Errorf("baseline figure %q was not produced by this run; refresh %s", b.Name, baselinePath)
		}
	}
	if rep.Regressions > 0 {
		return fmt.Errorf("%d of %d figures regressed beyond %.0f%% of the scaled baseline",
			rep.Regressions, len(rep.Deltas), (tolerance-1)*100)
	}
	if len(rep.EngineDrift) > 0 {
		var diffs []string
		for _, d := range rep.EngineDrift {
			diffs = append(diffs, fmt.Sprintf("%s %d -> %d", d.Name, d.Baseline, d.Current))
		}
		return fmt.Errorf("engine work counters differ from %s (%s); refresh the baseline if the change is intended",
			baselinePath, strings.Join(diffs, ", "))
	}
	return nil
}

func main() {
	var (
		fig        = flag.String("fig", "11", "figure to regenerate: 2,3,4,11..19,lifetime,multigpu,colocate,fleet,adapt,scaling,maxminfill,inference,faults, or 'all'")
		bench      = flag.Bool("bench", false, "run the headline benchmark figures ("+headlineFigures+") once each, with a machine-speed calibration, and emit the timing JSON the CI gate consumes (see -json/-gate)")
		short      = flag.Bool("short", false, "shrunken workloads for a fast pass")
		models     = flag.String("models", "", "comma-separated model subset (default: all five)")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = all cores, 1 = serial)")
		jsonPath   = flag.String("json", "", "write per-figure timings as JSON (BENCH_*.json perf-trajectory format) to this path")
		gatePath   = flag.String("gate", "", "compare this run's timings and engine work counters against the baseline JSON at this path; exit nonzero on a timing regression or any counter change")
		gateOut    = flag.String("gateout", "BENCH_delta.json", "write the gate's per-figure delta report to this path (with -gate)")
		gateTol    = flag.Float64("gatetol", 1.20, "regression tolerance: a figure fails the gate above this multiple of its scaled baseline")
		trajPath   = flag.String("trajectory", "", "append this run's report to the per-PR bench history JSON at this path (BENCH_trajectory.json format; see BENCH.md)")
		trajLabel  = flag.String("trajlabel", "head", "entry label for -trajectory; an existing entry with the same label is replaced")
		trajNote   = flag.String("trajnote", "", "free-form provenance note stored with the -trajectory entry")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the figure runs to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after the figure runs) to this path")
	)
	flag.Parse()
	if *bench {
		*fig = headlineFigures
	}

	// Profiles bracket the figure runs; run() returns instead of exiting so
	// the deferred profile writers always flush (pprof evidence survives a
	// failed figure too). The exiting defer is registered first — defers
	// unwind LIFO, so the profiles are stopped and written before os.Exit.
	failed := false
	defer func() {
		if failed {
			os.Exit(1)
		}
	}()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "g10bench: creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "g10bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "g10bench: creating %s: %v\n", *memProfile, err)
				failed = true
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "g10bench: writing heap profile: %v\n", err)
				failed = true
			}
		}()
	}

	if err := run(*fig, *short, *models, *workers, *jsonPath, *bench, *gatePath, *gateOut, *gateTol, *trajPath, *trajLabel, *trajNote); err != nil {
		fmt.Fprintf(os.Stderr, "g10bench: %v\n", err)
		failed = true
	}
}

func run(fig string, short bool, models string, workers int, jsonPath string, bench bool, gatePath, gateOut string, gateTol float64, trajPath, trajLabel, trajNote string) error {
	opt := experiments.Options{Short: short, W: os.Stdout, Perf: os.Stdout, Workers: workers}
	if models != "" {
		opt.Models = strings.Split(models, ",")
	}
	s := experiments.NewSession(opt)

	want := map[string]bool{}
	if fig == "all" {
		for _, f := range figures {
			want[f.name] = true
		}
	} else {
		for _, f := range strings.Split(fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	report := benchReport{Suite: "g10bench-figures", Short: short, Workers: workers, Models: opt.Models}
	if bench || gatePath != "" {
		report.CalibrationNs = calibrate()
	}
	ran := 0
	for _, f := range figures {
		if !want[f.name] {
			continue
		}
		t0 := time.Now()
		if err := f.run(s); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		elapsed := time.Since(t0)
		fmt.Printf("\n[figure %s regenerated in %v]\n\n", f.name, elapsed.Round(time.Millisecond))
		report.Benchmarks = append(report.Benchmarks, benchRecord{Name: "figure-" + f.name, Ns: elapsed.Nanoseconds()})
		report.TotalNs += elapsed.Nanoseconds()
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no figure matched %q", fig)
	}
	if es := s.EngineStats(); es != (gpu.EngineStats{}) {
		report.Engine = &engineRecord{
			FlowRecomputes:     es.FlowRecomputes,
			FlowSuccessions:    es.FlowSuccessions,
			ProgressTouches:    es.ProgressTouches,
			ReapScans:          es.ReapScans,
			TLBEpochShootdowns: es.TLBEpochShootdowns,
			FillRounds:         es.FillRounds,
			FillResScans:       es.FillResScans,
			FrontierReuses:     es.FrontierReuses,
			FlowAllocs:         es.FlowAllocs,
			TenantAborts:       es.TenantAborts,
			TenantRestarts:     es.TenantRestarts,
			CheckpointBytes:    es.CheckpointBytes,
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding %s: %w", jsonPath, err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonPath, err)
		}
	}
	if trajPath != "" {
		if err := appendTrajectory(trajPath, trajLabel, trajNote, report); err != nil {
			return err
		}
	}
	if gatePath != "" {
		return runGate(report, gatePath, gateOut, gateTol)
	}
	return nil
}
