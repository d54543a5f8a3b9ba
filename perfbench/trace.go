package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"g10sim/internal/gpu"
	"g10sim/internal/planner"
	"g10sim/internal/vitality"
)

// layer names a span the traced run records around calls into the
// simulator's layers.
type layer int

const (
	layerModels   layer = iota // models.Spec.Build + profile.Profile
	layerVitality              // vitality.Analyze
	layerPlanner               // gpu.ProgramBuilder.Program (nested in layerRun)
	layerRun                   // gpu.RunCluster / gpu.RunInference
	numLayers
)

// tracer accumulates the spans of one traced pass. A nil *tracer is the
// untraced run: every method is a no-op and policies stay unwrapped.
type tracer struct {
	spent     [numLayers]time.Duration
	planCalls int64
}

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(l layer, t0 time.Time) {
	if t != nil {
		t.spent[l] += time.Since(t0)
	}
}

// wrap returns pol with its planner calls timed and counted. Policies that
// build no program are returned as is, exactly like the session's program
// cache in internal/experiments treats them.
func (t *tracer) wrap(pol gpu.Policy) gpu.Policy {
	if t == nil {
		return pol
	}
	if _, ok := pol.(gpu.ProgramBuilder); !ok {
		return pol
	}
	tp := tracedPolicy{Policy: pol, t: t}
	if rp, ok := pol.(gpu.Replanner); ok {
		return &tracedReplanPolicy{tracedPolicy: tp, rp: rp}
	}
	return &tp
}

// tracedPolicy times ProgramBuilder.Program and forwards everything else to
// the wrapped policy, so simulated outputs are unchanged.
type tracedPolicy struct {
	gpu.Policy
	t *tracer
}

func (p *tracedPolicy) Program(a *vitality.Analysis, cfg gpu.Config) *planner.Program {
	t0 := time.Now()
	prog := p.Policy.(gpu.ProgramBuilder).Program(a, cfg)
	p.t.spent[layerPlanner] += time.Since(t0)
	p.t.planCalls++
	return prog
}

// tracedReplanPolicy additionally forwards the Replanner hook of an adaptive
// policy (the runner looks it up by type assertion).
type tracedReplanPolicy struct {
	tracedPolicy
	rp gpu.Replanner
}

func (p *tracedReplanPolicy) NextProgram(iter int, sig gpu.LatenessSignal, cur *planner.Program) *planner.Program {
	return p.rp.NextProgram(iter, sig, cur)
}

// cpuBuckets are the CPU self-time shares the traced run reports, in output
// order; "other" takes every package not named here.
var cpuBuckets = []string{"planner", "flownet", "gpu", "uvm", "ssd", "runtime", "other"}

// pkgOf extracts the import path from a Go symbol name as the CPU profile
// records it, e.g. "g10sim/internal/flownet.(*Network).fill" →
// "g10sim/internal/flownet". Type arguments of generic instantiations may
// contain dots and slashes of their own, so they are cut first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[slash:], '.'); i >= 0 {
		return fn[:slash+i]
	}
	return fn
}

// bucketOf maps an import path to its cpuBuckets entry.
func bucketOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "g10sim/internal/"):
		switch name := strings.TrimPrefix(pkg, "g10sim/internal/"); name {
		case "planner", "flownet", "gpu", "uvm", "ssd":
			return name
		}
	}
	return "other"
}

// selfTime decodes a gzipped pprof CPU profile and sums each sample's first
// value (the sample count) onto the bucket of its leaf function — the
// innermost inlined frame of the sample's first location.
func selfTime(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string-table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id (leaf first)
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2: // value
					n := 0
					return eachVarint(v, b, func(x uint64) {
						if n == 0 {
							s.count = int64(x)
						}
						n++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seen := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined call
					if seen {
						return nil
					}
					seen = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64, len(cpuBuckets))
	for _, s := range samples {
		name := ""
		if i := fnName[locFn[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[bucketOf(pkgOf(name))] += s.count
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped; the pprof schema uses none that matter.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether the encoder
// wrote one value (v) or a packed run (b).
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}
