package gpu

import (
	"fmt"
	"testing"

	"g10sim/internal/dnn"
	"g10sim/internal/models"
	"g10sim/internal/profile"
	"g10sim/internal/units"
	"g10sim/internal/uvm"
	"g10sim/internal/vitality"
)

// TestChunkTrainsUnderCheck runs long chunk trains under Check: a
// conveyor succession that carried a stale rate fails the max-min
// certificate, and one that lost or double-counted a chunk's memory fails
// the pool ledgers or GPU capacity — under memory pressure that blocks
// fetch chunks mid-train (forcing the fresh-flow fallback), with strict
// policies and with dynamic arrivals. A small MigrationChunk makes every
// migration a long train.
func TestChunkTrainsUnderCheck(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hostCap  units.Bytes
		chunk    units.Bytes
		strict   bool
		arrivals []units.Time
	}{
		{name: "tight-host", hostCap: 4 * units.MB, chunk: 2 * units.MB},
		{name: "mid-host", hostCap: 24 * units.MB, chunk: 2 * units.MB},
		{name: "roomy-host", hostCap: 256 * units.MB, chunk: 4 * units.MB},
		{name: "strict", hostCap: 256 * units.MB, chunk: 2 * units.MB, strict: true},
		{name: "staggered-arrivals", hostCap: 24 * units.MB, chunk: 2 * units.MB,
			arrivals: []units.Time{0, 5 * units.Millisecond, 20 * units.Millisecond}},
		{name: "default-chunk", hostCap: 24 * units.MB, chunk: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a1 := analyze(t, models.TinyCNN(128), 200)
			a2 := analyze(t, models.TinyMLP(64), 50)
			build := func() ClusterParams {
				cfg1 := testCfg(a1.PeakAlive()/2, tc.hostCap)
				cfg2 := testCfg(a2.PeakAlive()/2, tc.hostCap)
				if tc.chunk > 0 {
					cfg1.MigrationChunk = tc.chunk
					cfg2.MigrationChunk = tc.chunk
				}
				p := ClusterParams{
					Tenants: []ClusterTenant{
						{Analysis: a1, Policy: &testPolicy{name: "t1", strict: tc.strict}, Config: cfg1},
						{Analysis: a2, Policy: &testPolicy{name: "t2"}, Config: cfg2},
						{Analysis: a1, Policy: &testPolicy{name: "t3"}, Config: cfg1},
					},
					Shared: cfg1,
				}
				for i := range tc.arrivals {
					p.Tenants[i].ArrivalTime = tc.arrivals[i]
				}
				return p
			}
			runChecked(t, build)
		})
	}
}

// TestAdaptiveChunkTrainsUnderCheck extends the checked chunk-train run to
// tenants that re-time their programs mid-run from the lateness signal,
// which is accumulated per chunk.
func TestAdaptiveChunkTrainsUnderCheck(t *testing.T) {
	a1 := analyze(t, models.TinyCNN(128), 200)
	a2 := analyze(t, models.TinyMLP(64), 50)
	build := func() ClusterParams {
		cfg1 := testCfg(a1.PeakAlive()/2, 8*units.MB)
		cfg2 := testCfg(a2.PeakAlive()/2, 8*units.MB)
		cfg1.Iterations = 3
		cfg2.Iterations = 3
		cfg1.MigrationChunk = 2 * units.MB
		cfg2.MigrationChunk = 2 * units.MB
		return ClusterParams{
			Tenants: []ClusterTenant{
				{Analysis: a1, Policy: &replanPolicy{testPolicy: testPolicy{name: "t1"}, threshold: 1.05}, Config: cfg1},
				{Analysis: a2, Policy: &replanPolicy{testPolicy: testPolicy{name: "t2"}, threshold: 1.05}, Config: cfg2},
				{Analysis: a1, Policy: &replanPolicy{testPolicy: testPolicy{name: "t3"}, threshold: 1.05}, Config: cfg1,
					ArrivalTime: 5 * units.Millisecond},
			},
			Shared: cfg1,
		}
	}
	runChecked(t, build)
}

// trainMachine builds a machine over a graph with one large tensor (and a
// token weight), for direct chunk-train measurements.
func trainMachine(tb testing.TB, size units.Bytes, cfg Config) (*Machine, int) {
	tb.Helper()
	b := dnn.NewBuilder("train", 1)
	w := b.Tensor("W", dnn.Global, units.MB)
	big := b.Tensor("BIG", dnn.Intermediate, size)
	b.Kernel("k0", dnn.Forward, 1, []*dnn.Tensor{w}, []*dnn.Tensor{big})
	b.Kernel("k1", dnn.Backward, 1, []*dnn.Tensor{w, big}, []*dnn.Tensor{big})
	g := b.MustBuild()
	an, err := vitality.Analyze(g, &profile.Trace{Durations: []units.Duration{units.Millisecond, units.Millisecond}})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMachine(an, &testPolicy{name: "train"}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m, big.ID
}

// roundTrip evicts the tensor to host and fetches it back, draining the
// network in between.
func roundTrip(tb testing.TB, m *Machine, id int) {
	tb.Helper()
	if !m.RequestEvict(id, uvm.InHost) {
		tb.Fatal("evict rejected")
	}
	for m.Loc(id) != uvm.InHost {
		if !m.waitNext() {
			tb.Fatal("eviction stuck")
		}
	}
	if !m.RequestFetch(id, uvm.Prefetch) {
		tb.Fatal("fetch rejected")
	}
	for m.Loc(id) != uvm.InGPU {
		if !m.waitNext() {
			tb.Fatal("fetch stuck")
		}
	}
}

// TestChunkTrainRecomputesIndependentOfChunkCount pins the conveyor's
// scaling property: a migration's rate recomputations are a function of its
// rate-change points (start and end), not of how many chunks it moves in.
func TestChunkTrainRecomputesIndependentOfChunkCount(t *testing.T) {
	const size = 256 * units.MB
	measure := func(chunk units.Bytes) (recomputes, successions int64) {
		cfg := testCfg(512*units.MB, units.GB)
		cfg.MigrationChunk = chunk
		m, id := trainMachine(t, size, cfg)
		if !m.alloc(id) {
			t.Fatal("alloc failed")
		}
		r0, s0 := m.net.Recomputes(), m.net.Successions()
		roundTrip(t, m, id)
		return m.net.Recomputes() - r0, m.net.Successions() - s0
	}
	rSmall, sSmall := measure(2 * units.MB) // 128-chunk trains
	rBig, sBig := measure(256 * units.MB)   // single-chunk migrations
	if wantSmall := 2 * int64(size/(2*units.MB)-1); sSmall != wantSmall {
		t.Errorf("2MB chunks: %d successions, want %d", sSmall, wantSmall)
	}
	if sBig != 0 {
		t.Errorf("single-chunk migrations recorded %d successions", sBig)
	}
	if rSmall != rBig {
		t.Errorf("recomputes depend on chunk count: %d at 2MB chunks vs %d at 256MB", rSmall, rBig)
	}
	t.Logf("round trip: %d recomputes at both chunk sizes; %d successions at 2MB", rSmall, sSmall)
}

// BenchmarkMigrationChunkTrain migrates one large tensor back and forth at
// varying chunk granularity. With the conveyor, ns/op and recomputes/op stay
// nearly flat as the chunk count grows 128x; the reported metrics pin the
// event count to rate-change points rather than chunks.
func BenchmarkMigrationChunkTrain(b *testing.B) {
	const size = 512 * units.MB
	for _, chunk := range []units.Bytes{2 * units.MB, 8 * units.MB, 32 * units.MB, 64 * units.MB, 256 * units.MB} {
		b.Run(fmt.Sprintf("chunk=%dMB", chunk/units.MB), func(b *testing.B) {
			cfg := testCfg(units.GB, units.GB)
			cfg.MigrationChunk = chunk
			m, id := trainMachine(b, size, cfg)
			if !m.alloc(id) {
				b.Fatal("alloc failed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			r0, s0 := m.net.Recomputes(), m.net.Successions()
			for i := 0; i < b.N; i++ {
				roundTrip(b, m, id)
			}
			b.ReportMetric(float64(m.net.Recomputes()-r0)/float64(b.N), "recomputes/op")
			b.ReportMetric(float64(m.net.Successions()-s0)/float64(b.N), "successions/op")
		})
	}
}
