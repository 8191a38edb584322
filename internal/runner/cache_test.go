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

// FuzzCacheGet writes arbitrary bytes as a cache entry file, once for
// each reader — Get at a result key, the quarantine reader at another
// (seed corpus: a valid result entry, the same entry truncated, an empty
// file, a valid quarantine entry). Neither reader panics, an entry it
// cannot decode reads as a miss with the error, and one it can decode
// goes through a store and a read unchanged.
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
	qkey := strings.Repeat("9a", 32)
	if err := c.put(qkey, quarantine{Err: "invariant watchdog violated", Diagnostics: "swA: wedged"}); err != nil {
		f.Fatal(err)
	}
	validQ, err := os.ReadFile(c.path(qkey))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(validQ)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(qkey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var q quarantine
		ok, err := c.get(qkey, &q)
		switch {
		case !ok && err == nil:
			t.Fatalf("a quarantine entry that does not decode reads as a clean miss")
		case ok && err != nil:
			t.Fatalf("a quarantine hit reads (%+v, true, %v)", q, err)
		case ok:
			if err := c.put(qkey, q); err != nil {
				t.Fatal(err)
			}
			var back quarantine
			if ok, err := c.get(qkey, &back); !ok || err != nil || back != q {
				t.Fatalf("a stored quarantine reads back as (%+v, %v, %v), want %+v", back, ok, err, q)
			}
		}

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
