package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden figure snapshots instead of diffing them:
//
//	go test ./internal/experiments/ -run TestGoldenFigures -update
var update = flag.Bool("update", false, "rewrite the golden figure snapshots under testdata/")

// goldenModels fixes the model subset the snapshots are taken with (the
// fleet/adapt studies use their own catalogue regardless).
var goldenModels = []string{"BERT", "ResNet152"}

// goldenFigures is every figure the harness pins, in g10bench order: the §3
// characterisation, the §7 evaluation, the SSD-lifetime analysis, and the
// cluster-engine studies. Each runs in short mode against one shared
// session, so the pass costs one simulation per distinct cell.
var goldenFigures = []struct {
	name string
	run  func(*Session) error
}{
	{"2", discard(Figure2)},
	{"3", discard(Figure3)},
	{"4", discard(Figure4)},
	{"11", discard(Figure11)},
	{"12", discard(Figure12)},
	{"13", discard(Figure13)},
	{"14", discard(Figure14)},
	{"15", discard(Figure15)},
	{"16", discard(Figure16)},
	{"17", discard(Figure17)},
	{"18", discard(Figure18)},
	{"19", discard(Figure19)},
	{"lifetime", discard(SSDLifetime)},
	{"multigpu", discard(MultiGPU)},
	{"colocate", discard(Colocate)},
	{"fleet", discard(Fleet)},
	{"adapt", discard(Adapt)},
	{"scaling", discard(Scaling)},
	{"maxminfill", discard(MaxMinFill)},
	{"inference", discard(Inference)},
	{"faults", discard(Faults)},
}

func discard[T any](f func(*Session) ([]T, error)) func(*Session) error {
	return func(s *Session) error {
		_, err := f(s)
		return err
	}
}

// switchWriter lets one session's figures print into per-figure buffers.
type switchWriter struct{ w io.Writer }

func (s *switchWriter) Write(p []byte) (int, error) {
	if s.w == nil {
		return len(p), nil
	}
	return s.w.Write(p)
}

// TestGoldenFigures diffs every figure's printed output against its
// testdata/*.golden snapshot, byte for byte. The snapshots pin the numbers
// themselves — a refactor that drifts any figure's results fails here even
// if every shape property still holds. Regenerate intentionally with
// -update and review the diff like code.
//
// The session runs every simulation under the engine's invariant check
// (see internal/gpu/check.go), so matching bytes also show, figure by
// figure, that the invariants hold and that checking does not perturb a
// run.
func TestGoldenFigures(t *testing.T) {
	sw := &switchWriter{}
	s := NewSession(Options{Short: true, Models: goldenModels, W: sw})
	s.check = true
	for _, fig := range goldenFigures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			var buf bytes.Buffer
			sw.w = &buf
			defer func() { sw.w = nil }()
			if err := fig.run(s); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "figure-"+fig.name+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing snapshot (regenerate with -update): %v", err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("figure %s drifted from its golden snapshot%s", fig.name, goldenDiff(want, got))
			}
		})
	}
}

// goldenDiff renders the first divergent lines of a golden mismatch.
func goldenDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf(" at line %d:\n  golden:  %s\n  current: %s", i+1, w, g)
		}
	}
	return fmt.Sprintf(": lengths differ (golden %d bytes, current %d)", len(want), len(got))
}
