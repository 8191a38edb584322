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

// GC evicts least-recently-used files until the cache's total size is
// at most maxBytes (<= 0: only report the size). It sizes every file of
// the cache's layout (xx/xx…), so a stray temp file or an entry of an
// older encoding counts like an entry, and touches no other file under
// the root. Access order is each file's mtime, so it survives a crash
// and every handle on the directory sees the others' reads; ties break
// on the file name.
func (c *Cache) GC(maxBytes int64) (GCStats, error) {
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var stats GCStats
	var entries []entry
	// Each p is "xx/<file>" (rooted so c.dir is no pattern): shard p[:2].
	paths, err := fs.Glob(os.DirFS(c.dir), "[0-9a-f][0-9a-f]/*")
	if err != nil {
		return stats, err
	}
	for _, p := range paths {
		info, err := os.Lstat(filepath.Join(c.dir, p))
		if err != nil || !info.Mode().IsRegular() || !strings.HasPrefix(p[3:], p[:2]) {
			continue // raced with a concurrent Remove, or not the cache's file
		}
		entries = append(entries, entry{path: filepath.Join(c.dir, p), size: info.Size(), mtime: info.ModTime()})
		stats.Bytes += info.Size()
	}
	stats.Entries = len(entries)
	if maxBytes <= 0 || stats.Bytes <= maxBytes {
		return stats, nil
	}

	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return filepath.Base(entries[i].path) < filepath.Base(entries[j].path)
	})
	for _, e := range entries {
		if stats.Bytes-stats.Freed <= maxBytes {
			break
		}
		if rerr := os.Remove(e.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return stats, rerr
		}
		stats.Evicted++
		stats.Freed += e.size
	}
	return stats, nil
}
