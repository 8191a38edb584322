package runner

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCStats reports what one GC pass did.
type GCStats struct {
	// Entries and Bytes describe the cache before the pass.
	Entries int
	Bytes   int64
	// Evicted and Freed describe what the pass removed.
	Evicted int
	Freed   int64
}

// GC evicts least-recently-used entries until the cache's total size
// is at most maxBytes (<= 0: only report the size). Access order is
// each entry's mtime, so it survives a crash and every handle on the
// directory sees the others' reads; ties break on key.
func (c *Cache) GC(maxBytes int64) (GCStats, error) {
	type entry struct {
		key   string
		path  string
		size  int64
		mtime time.Time
	}
	var (
		stats   GCStats
		entries []entry
	)
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".gob") {
			return err
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // raced with a concurrent Remove: skip
		}
		key := strings.TrimSuffix(filepath.Base(path), ".gob")
		entries = append(entries, entry{key: key, path: path, size: info.Size(), mtime: info.ModTime()})
		stats.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.Entries = len(entries)
	if maxBytes <= 0 || stats.Bytes <= maxBytes {
		return stats, nil
	}

	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].key < entries[j].key
	})
	remaining := stats.Bytes
	for _, e := range entries {
		if remaining <= maxBytes {
			break
		}
		if rerr := os.Remove(e.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return stats, rerr
		}
		remaining -= e.size
		stats.Evicted++
		stats.Freed += e.size
	}
	return stats, nil
}
