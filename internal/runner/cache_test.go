package runner

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// FuzzCacheGet writes arbitrary bytes as a cache entry file, once for
// each reader — Get at a result key, the quarantine reader at another
// (seed corpus: a result entry and a quarantine entry, each whole and
// truncated, an empty file, null, {} and a whole entry with trailing
// bytes). Neither reader panics, an entry it cannot decode reads as a
// miss with the error, and one it can decode goes through a store and
// a read with identical JSON bytes.
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
	if err := c.put(qkey, WireResult{Err: "invariant watchdog violated", Quarantined: true, Diagnostics: "swA: wedged", Key: key}); err != nil {
		f.Fatal(err)
	}
	validQ, err := os.ReadFile(c.path(qkey))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], validQ, validQ[:len(validQ)/2],
		{}, []byte("null"), []byte("{}"), append(append([]byte{}, valid...), " {}"...)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(qkey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, ok, err := c.get(qkey, true)
		switch {
		case !ok && err == nil:
			t.Fatalf("a quarantine entry that does not decode reads as a clean miss")
		case ok && err != nil:
			t.Fatalf("a quarantine hit reads (%+v, true, %v)", q, err)
		case ok:
			if err := c.put(qkey, q); err != nil {
				t.Fatal(err)
			}
			back, ok, err := c.get(qkey, true)
			if !ok || err != nil || !bytes.Equal(jsonBytes(t, back), jsonBytes(t, q)) {
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
		if !bytes.Equal(jsonBytes(t, res), jsonBytes(t, back)) {
			t.Fatal("Put then Get changed the result")
		}
	})
}

// TestCacheHoldsTheRun: the entry a run stores reads back, through Get
// and Recall, as a Result with the run's own JSON bytes.
func TestCacheHoldsTheRun(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{Experiments: []string{"xleafincast"}, Schemes: []string{"CCFIT"}, MS: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := (&LocalExecutor{Cache: c}).Execute(context.Background(), jobs[0], nil)
	if run.Err != nil || run.Cached {
		t.Fatalf("cold run: cached %v, err %v", run.Cached, run.Err)
	}
	want := jsonBytes(t, run.Result)
	got, ok, err := c.Get(run.Key)
	if !ok || err != nil || !bytes.Equal(jsonBytes(t, got), want) {
		t.Fatalf("Get reads (ok %v, %v), or a Result other than the run's", ok, err)
	}
	jr, ok := c.Recall(jobs[0])
	if !ok || !jr.Cached || jr.Key != run.Key || !bytes.Equal(jsonBytes(t, jr.Result), want) {
		t.Fatalf("Recall reads (ok %v, cached %v, key %q), or a Result other than the run's", ok, jr.Cached, jr.Key)
	}
}

// closeFails is a temp file whose Close closes it and then fails, as a
// disk that loses the write-back does.
type closeFails struct{ *os.File }

func (f closeFails) Close() error {
	if err := f.File.Close(); err != nil {
		return err
	}
	return errors.New("close: disk full")
}

// putFails stores a result under key and requires the store to fail and
// to leave nothing but what the shard held: no entry, no temp file.
func putFails(t *testing.T, c *Cache, key string) {
	t.Helper()
	// The shard may not exist yet: a missing one reads as empty.
	before, _ := os.ReadDir(filepath.Dir(c.path(key)))
	if err := c.Put(key, &experiments.Result{ExpID: "fig7a", Scheme: "CCFIT", Seed: 1}); err == nil {
		t.Fatal("Put returned nil after the disk refused the entry")
	}
	after, _ := os.ReadDir(filepath.Dir(c.path(key)))
	if len(after) != len(before) {
		t.Fatalf("a failed Put left %d files in the shard, want %d", len(after), len(before))
	}
}

// TestPutCloseFails: an entry whose temp file fails to close is an
// error, and is not renamed into place.
func TestPutCloseFails(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.create = func(dir, pattern string) (tempFile, error) {
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			return nil, err
		}
		return closeFails{f}, nil
	}
	key := strings.Repeat("c1", 32)
	putFails(t, c, key)
	if _, err := os.Lstat(c.path(key)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the entry is in place after its close failed (Lstat: %v)", err)
	}
}

// TestPutRenameFails: an entry that cannot be renamed into place (a
// directory holds its path) is an error, and its temp file goes.
func TestPutRenameFails(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("e2", 32)
	if err := os.MkdirAll(c.path(key), 0o755); err != nil {
		t.Fatal(err)
	}
	putFails(t, c, key)
}
