package runner_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// TestGCSeesEveryHandlesHits: two handles on one cache directory — a
// ccfit-run and a ccfit-serve sharing it — each serve a hit on a
// different old entry and are then settled the way their tool settles
// them. A third handle's GC evicts the entry nobody read, not one that
// was just read by the other handle.
func TestGCSeesEveryHandlesHits(t *testing.T) {
	dir := t.TempDir()
	seed, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aa11", "bb22", "cc33"} // stored oldest first
	for i, k := range keys {
		if err := seed.Put(k, &experiments.Result{ExpID: k, Scheme: "CCFIT"}); err != nil {
			t.Fatal(err)
		}
		mt := time.Unix(2_000_000+int64(i)*10, 0)
		if err := os.Chtimes(filepath.Join(dir, k[:2], k+".json"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	hit := func(c *runner.Cache, key string) {
		t.Helper()
		if _, ok, err := c.Get(key); !ok || err != nil {
			t.Fatalf("Get(%s): ok=%v err=%v", key, ok, err)
		}
	}

	run, err := runner.OpenCache(dir) // ccfit-run -cache dir
	if err != nil {
		t.Fatal(err)
	}
	serve, err := runner.OpenCache(dir) // ccfit-serve -cache dir
	if err != nil {
		t.Fatal(err)
	}
	sched, err := campaign.Open(campaign.Options{Dir: filepath.Join(t.TempDir(), "campaigns"), Cache: serve})
	if err != nil {
		t.Fatal(err)
	}
	hit(run, "aa11")
	hit(serve, "bb22")
	f := cli.Defaults()
	f.SettleCache(run, t.Logf)
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}

	gc, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "cc", "cc33.json"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := gc.GC(2 * info.Size()) // equal sizes: room for two
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != 1 {
		t.Fatalf("GC evicted %d entries, want 1: %+v", stats.Evicted, stats)
	}
	for k, want := range map[string]bool{"aa11": true, "bb22": true, "cc33": false} {
		if gc.Has(k) != want {
			t.Errorf("after GC, %s present = %v, want %v (only cc33 went unread)", k, gc.Has(k), want)
		}
	}
}
