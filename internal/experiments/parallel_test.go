package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestParallelSessionMatchesSerial asserts the worker-pool engine is
// deterministic: a session fanning runs across many workers produces
// byte-identical tables and deeply equal rows to a fully serial session.
// The figures cover each enumeration shape: a fixed analysis list (2), the
// model × policy matrix (11), sweeps whose grid depends on analyses built
// first (16, 17) or on the model list alone (15, 18), and the uncached
// perturbed-plan grid (19).
func TestParallelSessionMatchesSerial(t *testing.T) {
	figures := []struct {
		name string
		run  func(*Session) (any, error)
	}{
		{"2", rowsOf(Figure2)},
		{"11", rowsOf(Figure11)},
		{"15", rowsOf(Figure15)},
		{"16", rowsOf(Figure16)},
		{"17", rowsOf(Figure17)},
		{"18", rowsOf(Figure18)},
		{"19", rowsOf(Figure19)},
	}
	run := func(workers int) (outs []string, rows []any) {
		var buf bytes.Buffer
		s := NewSession(Options{Short: true, Models: []string{"BERT", "ResNet152"}, W: &buf, Workers: workers})
		for _, fig := range figures {
			r, err := fig.run(s)
			if err != nil {
				t.Fatalf("workers=%d: Figure%s: %v", workers, fig.name, err)
			}
			outs = append(outs, buf.String())
			rows = append(rows, r)
			buf.Reset()
		}
		return outs, rows
	}

	serialOut, serial := run(1)
	parallelOut, parallel := run(8)
	for i, fig := range figures {
		if serialOut[i] != parallelOut[i] {
			t.Errorf("Figure%s: printed table differs between serial and parallel sessions", fig.name)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("Figure%s: rows differ between serial and parallel sessions", fig.name)
		}
	}
}

func rowsOf[T any](f func(*Session) ([]T, error)) func(*Session) (any, error) {
	return func(s *Session) (any, error) { return f(s) }
}

// TestUnknownModelFailsEveryModelFigure: every figure driven by
// Options.Models returns an error naming an unknown model instead of
// panicking, wherever the failure surfaces (enumeration or a pooled run),
// and the error is the same at any worker count: the lowest failing job's,
// so with two unknown models it names the first.
func TestUnknownModelFailsEveryModelFigure(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(*Session) error
	}{
		{"11", discard(Figure11)},
		{"12", discard(Figure12)},
		{"13", discard(Figure13)},
		{"14", discard(Figure14)},
		{"15", discard(Figure15)},
		{"16", discard(Figure16)},
		{"18", discard(Figure18)},
		{"19", discard(Figure19)},
		{"lifetime", discard(SSDLifetime)},
		{"multigpu", discard(MultiGPU)},
	} {
		t.Run(fig.name, func(t *testing.T) {
			var msgs []string
			for _, workers := range []int{1, 8} {
				err := fig.run(NewSession(Options{Short: true, Models: []string{"nope", "nada"}, Workers: workers}))
				if err == nil || !strings.Contains(err.Error(), `"nope"`) {
					t.Fatalf("workers=%d: error %v, want one naming the unknown model", workers, err)
				}
				msgs = append(msgs, err.Error())
			}
			if msgs[0] != msgs[1] {
				t.Errorf("error differs across worker counts:\n  workers=1: %s\n  workers=8: %s", msgs[0], msgs[1])
			}
		})
	}
}

// TestSessionSingleFlight asserts concurrent identical requests collapse to
// one simulation: both calls must observe the very same cached value.
func TestSessionSingleFlight(t *testing.T) {
	s := NewSession(Options{Short: true, Models: []string{"BERT"}, Workers: 4})
	type out struct {
		res interface{}
		err error
	}
	results := make([]out, 8)
	parallelDo(len(results), 4, func(i int) {
		r, err := s.RunBase("BERT", "G10")
		results[i] = out{res: r, err: err}
	})
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("call %d: %v", i, r.err)
		}
		if !reflect.DeepEqual(r.res, results[0].res) {
			t.Errorf("call %d diverged from call 0", i)
		}
	}
}
