package ssd

import (
	"math/rand"
	"testing"

	"g10sim/internal/units"
)

// trainStream drives a ZNAND drive the way a training run's evictions do:
// tensor-sized ranges (1–256 one-MB pages) are allocated and written, every
// fourth step rewrites a live range in place (a re-eviction), and at most
// 64 ranges are held at once, the oldest freed first. It writes about 600K
// pages, a fifth of the drive, so GC never runs.
func trainStream(tb testing.TB, d *Device) {
	rng := rand.New(rand.NewSource(1))
	var live []LogicalRange
	for i := 0; i < 4000; i++ {
		r, err := d.Alloc(1 + rng.Int63n(256))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := d.Write(r); err != nil {
			tb.Fatal(err)
		}
		live = append(live, r)
		if i%4 == 3 {
			if _, err := d.Write(live[rng.Intn(len(live))]); err != nil {
				tb.Fatal(err)
			}
		}
		if len(live) > 64 {
			d.Free(live[0])
			live = live[1:]
		}
	}
}

// gcConfig is a 128MB device of 4KB pages: small enough that gcStream's
// churn keeps its garbage collector busy.
func gcConfig() Config {
	return Config{
		Channels:        2,
		ChipsPerChannel: 2,
		PageSize:        4 * units.KB,
		PagesPerBlock:   64,
		Capacity:        128 * units.MB,
	}
}

// gcStream drives a gcConfig device the way a fleet's shared array churns:
// ranges of 8–64 pages fill 70% of the logical space, then random
// sub-ranges are overwritten and whole ranges freed and replaced, so GC
// relocates the valid pages of fragmented blocks.
func gcStream(tb testing.TB, d *Device) {
	rng := rand.New(rand.NewSource(2))
	var live []LogicalRange
	var held int64
	alloc := func() {
		r, err := d.Alloc(8 + rng.Int63n(57))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := d.Write(r); err != nil {
			tb.Fatal(err)
		}
		live = append(live, r)
		held += r.Count
	}
	for held < d.LogicalPages()*7/10 {
		alloc()
	}
	for i := 0; i < 20000; i++ {
		if i%16 == 15 {
			j := rng.Intn(len(live))
			d.Free(live[j])
			held -= live[j].Count
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			alloc()
			continue
		}
		r := live[rng.Intn(len(live))]
		off := rng.Int63n(r.Count)
		sub := LogicalRange{Start: r.Start + off, Count: min(4, r.Count-off)}
		if _, err := d.Write(sub); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFTL times a fresh device through each stream. pages/op (host
// pages programmed) and relocated/op (GC relocations) are exact work
// counts; B/op is the FTL's memory footprint for the pages written.
func BenchmarkFTL(b *testing.B) {
	for _, bc := range []struct {
		name   string
		cfg    Config
		stream func(testing.TB, *Device)
	}{
		{"train", ZNAND(), trainStream},
		{"gc", gcConfig(), gcStream},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				d := MustNew(bc.cfg)
				bc.stream(b, d)
				st = d.Stats()
			}
			b.ReportMetric(float64(st.HostWriteBytes/bc.cfg.PageSize), "pages/op")
			b.ReportMetric(float64(st.GCRelocated), "relocated/op")
		})
	}
}
