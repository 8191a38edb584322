package runner

import (
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
)

func putResult(t *testing.T, c *Cache, key string) {
	t.Helper()
	r := &experiments.Result{ExpID: key, Scheme: "CCFIT", Normalized: []float64{0.5, 0.6}}
	if err := c.Put(key, r); err != nil {
		t.Fatal(err)
	}
}

// keys returns 64-hex-char-ish distinct keys (the cache only needs
// key[:2] for sharding).
var gcKeys = []string{"aa11", "bb22", "cc33", "dd44"}

func cacheHas(t *testing.T, c *Cache, key string) bool {
	t.Helper()
	_, ok, err := c.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return ok
}

// ageEntries stamps each key's entry with an mtime in the past, ten
// seconds apart and oldest first, and returns the newest stamp.
func ageEntries(t *testing.T, c *Cache, keys ...string) time.Time {
	t.Helper()
	var mt time.Time
	for i, k := range keys {
		mt = time.Unix(2_000_000+int64(i)*10, 0)
		if err := os.Chtimes(c.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	return mt
}

// TestGCEvictionOrder pins LRU semantics: entries are evicted in
// last-access order (entry mtimes), and a hit on an old entry moves its
// mtime forward and saves it.
func TestGCEvictionOrder(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range gcKeys {
		putResult(t, c, k)
	}
	newest := ageEntries(t, c, gcKeys...)
	// Touch the oldest entry so it becomes the newest.
	if !cacheHas(t, c, gcKeys[0]) {
		t.Fatal("entry aa11 missing before GC")
	}
	info, err := os.Stat(c.path(gcKeys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(newest) {
		t.Fatalf("a hit left aa11's mtime at %v, not past %v", info.ModTime(), newest)
	}

	// Entry sizes are equal; keep room for half.
	stats, err := c.GC(2 * info.Size())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != len(gcKeys) || stats.Evicted != 2 || stats.Freed != 2*info.Size() {
		t.Fatalf("GC stats %+v, want %d entries and 2 evicted", stats, len(gcKeys))
	}
	// bb22 and cc33 are the least recently used once aa11 was read.
	for k, want := range map[string]bool{"aa11": true, "bb22": false, "cc33": false, "dd44": true} {
		if c.Has(k) != want {
			t.Errorf("after GC, %s present = %v, want %v", k, c.Has(k), want)
		}
	}
}

// TestGCUnderLimitIsNoop: a cache under the limit only reports size.
func TestGCUnderLimitIsNoop(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putResult(t, c, "aa11")
	stats, err := c.GC(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != 0 || !cacheHas(t, c, "aa11") {
		t.Fatalf("GC under limit evicted entries: %+v", stats)
	}
	if stats.Bytes == 0 || stats.Entries != 1 {
		t.Fatalf("GC did not report size: %+v", stats)
	}
}

// TestGCTiesBreakOnKey: entries with equal mtimes are evicted in key
// order, so two passes over the same directory agree.
func TestGCTiesBreakOnKey(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(2_000_000, 0)
	for _, k := range []string{"dd44", "bb22", "cc33"} {
		putResult(t, c, k)
		if err := os.Chtimes(c.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(c.path("bb22"))
	if err != nil {
		t.Fatal(err)
	}
	// Room for all but one entry.
	stats, err := c.GC(3*info.Size() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != 1 {
		t.Fatalf("GC evicted %d entries, want 1: %+v", stats.Evicted, stats)
	}
	if c.Has("bb22") || !c.Has("cc33") || !c.Has("dd44") {
		t.Errorf("tie not broken on key: bb22 %v, cc33 %v, dd44 %v", c.Has("bb22"), c.Has("cc33"), c.Has("dd44"))
	}
}
