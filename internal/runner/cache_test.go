package runner

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// FuzzCacheGet writes arbitrary bytes as a cache entry file (seed corpus:
// a valid entry, the same entry truncated, an empty file): Get never
// panics, an entry it cannot decode is (nil, false, err), and one it can
// decode goes through a Put and a Get unchanged.
func FuzzCacheGet(f *testing.F) {
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := strings.Repeat("5e", 32)
	if err := c.Put(key, &experiments.Result{
		ExpID: "xleafincast", Scheme: "CCFIT", Seed: 1, BinMS: 0.05,
		TimeMS: []float64{0, 0.05}, Normalized: []float64{0.1, 0.2}, TotalGBs: []float64{1, 2},
		Flows: []experiments.FlowSeries{{ID: 3, GBs: []float64{0.5, 0}}},
		FCT: &metrics.FCTStats{Registered: 2, Completed: 1, Incomplete: 1,
			Overall: metrics.FCTBucket{Label: "all", MaxBytes: math.MaxInt64, Completed: 1, MeanSlowdown: 1.5}},
		Summary: experiments.Summary{DeliveredPkts: 10, FCTCompleted: 1, FCTSlowdownP99: 1.5},
	}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(c.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok, err := c.Get(key)
		if !ok {
			if res != nil || err == nil {
				t.Fatalf("an entry that does not decode reads (%v, false, %v), want (nil, false, err)", res, err)
			}
			return
		}
		if res == nil || err != nil {
			t.Fatalf("a hit reads (%v, true, %v)", res, err)
		}
		if err := c.Put(key, res); err != nil {
			t.Fatal(err)
		}
		back, ok, err := c.Get(key)
		if !ok || err != nil {
			t.Fatalf("a stored entry reads back as (ok %v, %v)", ok, err)
		}
		if !bytes.Equal(gobBytes(t, res), gobBytes(t, back)) {
			t.Fatal("Put then Get changed the result")
		}
	})
}
