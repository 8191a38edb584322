package runner

import (
	"os"
	"path/filepath"
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

// TestGCCountsStrayFiles: GC sizes every file of the cache's layout,
// not only entries — a temp file a crashed store left and an entry in
// an older encoding are counted and, being older, evicted before any
// entry. Files the cache never wrote (at the root, in another
// directory, in a shard under another prefix) are older still, yet GC
// neither counts nor removes them: the root may be a directory the
// user shares with other data.
func TestGCCountsStrayFiles(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range gcKeys[:2] {
		putResult(t, c, k)
	}
	ageEntries(t, c, gcKeys[:2]...)
	strays := []string{
		filepath.Join(c.Dir(), "cc", "cc33.tmp-123"),
		filepath.Join(c.Dir(), "dd", "dd44.gob"),
	}
	foreign := []string{
		filepath.Join(c.Dir(), "notes.txt"),
		filepath.Join(c.Dir(), "campaigns", "x.spec.json"),
		filepath.Join(c.Dir(), "zz", "zz55.json"),
		filepath.Join(c.Dir(), "aa", "bb66.json"),
	}
	writeOld := func(p string, size int, mt time.Time) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	var all, strayBytes int64
	for i, p := range strays {
		writeOld(p, 100+i, time.Unix(1_000_000+int64(i), 0)) // older than every entry
		strayBytes += int64(100 + i)
	}
	for _, p := range foreign {
		writeOld(p, 1000, time.Unix(500_000, 0)) // older than every stray
	}
	for _, k := range gcKeys[:2] {
		info, err := os.Stat(c.path(k))
		if err != nil {
			t.Fatal(err)
		}
		all += info.Size()
	}
	all += strayBytes

	stats, err := c.GC(all - strayBytes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 4 || stats.Bytes != all || stats.Evicted != 2 || stats.Freed != strayBytes {
		t.Fatalf("GC stats %+v, want 4 files of %d bytes and the two strays (%d bytes) evicted", stats, all, strayBytes)
	}
	for _, p := range strays {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stray %s survived GC (%v)", p, err)
		}
	}
	for _, p := range foreign {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("GC removed %s, a file the cache never wrote (%v)", p, err)
		}
	}
	for _, k := range gcKeys[:2] {
		if !c.Has(k) {
			t.Errorf("entry %s evicted before the older strays", k)
		}
	}
}
