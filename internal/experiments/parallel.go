package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// flight is a single-flight cell: the first caller computes the value, all
// callers block on the same computation, and the result is cached. Each
// (model, batch, policy, config) simulation runs exactly once no matter how
// many figures request it concurrently.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (f *flight[T]) do(fn func() (T, error)) (T, error) {
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// cached returns m's single-flight cell for key, creating it under mu.
func cached[K comparable, T any](mu *sync.Mutex, m map[K]*flight[T], key K) *flight[T] {
	mu.Lock()
	defer mu.Unlock()
	f, ok := m[key]
	if !ok {
		f = &flight[T]{}
		m[key] = f
	}
	return f
}

// workers reports the session's worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelDo runs fn(i) for every i in [0, n) across up to w workers. Jobs
// must be independent; with w == 1 it degenerates to a serial loop.
func parallelDo(n, w int, fn func(int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fanOut runs every job across the session's worker pool and returns
// the results in job order, with the error of the lowest-indexed failing
// job. A figure builds its job list once, fans it out here, and prints from
// the returned slice; every run is a pure function of its inputs and the
// session caches single-flight each key, so the results are identical at
// any worker count.
func fanOut[R any](s *Session, jobs []func() (R, error)) ([]R, error) {
	out := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	parallelDo(len(jobs), s.opt.workers(), func(i int) { out[i], errs[i] = jobs[i]() })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
