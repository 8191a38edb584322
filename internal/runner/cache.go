package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// schemaVersion is bumped when the Result encoding or the simulation
// semantics change incompatibly, invalidating every entry.
const schemaVersion = 2

// Cache is a content-addressed on-disk store of job outcomes: one
// WireResult in JSON per key at dir/<key[:2]>/<key>.json — {Result} at
// a result key, {Err, Quarantined, Diagnostics, Key} at a quarantine
// key, where Key is the result key the quarantined job reports.
// Entries are written atomically (temp file + rename), a missing or
// corrupt entry reads as a miss, and a hit decodes to the
// byte-identical Result the run produced. An entry's mtime is its last
// access (a store stamps it, a hit moves it), which orders GC's
// evictions; the files are the whole state.
type Cache struct {
	dir string
	// create makes put's temp file: os.CreateTemp, or a failing disk
	// in a test.
	create func(dir, pattern string) (tempFile, error)
}

// tempFile is what put needs of an *os.File.
type tempFile interface {
	Write([]byte) (int, error)
	Close() error
	Name() string
}

func createTemp(dir, pattern string) (tempFile, error) { return os.CreateTemp(dir, pattern) }

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: opening cache: %w", err)
	}
	return &Cache{dir: dir, create: createTemp}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Fingerprint is the canonical pre-hash description of one run: the
// experiment identity (id, durations, kind, flow set), the scheme, the
// seed, every congestion-management parameter and the module version,
// plus extra outcome-affecting facets (a fault script's fingerprint).
// Equal fingerprints mean identical Results. The Build closure cannot
// be fingerprinted: synthetic experiments with different traffic must
// use distinct IDs.
func Fingerprint(exp experiments.Experiment, scheme string, seed int64, p core.Params, extra ...string) string {
	p.Tracer = nil // observers don't affect results and can't be serialized
	fp := fmt.Sprintf("ccfit-result-v%d|mod=%s|exp=%s|dur=%d|bin=%d|kind=%d|flows=%v|scheme=%s|seed=%d|params=%+v",
		schemaVersion, ModuleVersion(), exp.ID, exp.Duration, exp.Bin, exp.Kind, exp.FlowIDs, scheme, seed, p)
	for _, e := range extra {
		fp += "|" + e
	}
	return fp
}

// Key hashes a run's Fingerprint into its cache address.
func Key(exp experiments.Experiment, scheme string, seed int64, p core.Params, extra ...string) string {
	sum := sha256.Sum256([]byte(Fingerprint(exp, scheme, seed, p, extra...)))
	return hex.EncodeToString(sum[:])
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads a cached result. A clean miss reports !ok with a nil
// error; an entry that fails to decode or holds no Result (truncated
// write, bit rot, stale encoding) reports !ok with the error, so the
// caller can log it, Remove the entry and recompute.
func (c *Cache) Get(key string) (*experiments.Result, bool, error) {
	w, ok, err := c.get(key, false)
	return w.Result, ok, err
}

// get reads key's entry with Get's contract. An entry is whole when it
// holds what its key stores: a Result at a result key, a quarantined
// error and its result key at a quarantine key.
func (c *Cache) get(key string, quarantine bool) (w WireResult, ok bool, err error) {
	b, rerr := os.ReadFile(c.path(key))
	if rerr != nil {
		return w, false, nil // clean miss
	}
	err = json.Unmarshal(b, &w)
	if err == nil && (quarantine && (!w.Quarantined || w.Err == "" || w.Key == "") || !quarantine && w.Result == nil) {
		err = errors.New("no outcome")
	}
	if err != nil {
		return WireResult{}, false, fmt.Errorf("runner: corrupt cache entry %s: %w", key, err)
	}
	now := time.Now() // GC's access order; a failure costs only its accuracy
	_ = os.Chtimes(c.path(key), now, now)
	return w, true, nil
}

// Has reports whether an entry exists for key, without decoding it.
func (c *Cache) Has(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Remove deletes a cache entry (a no-op when absent).
func (c *Cache) Remove(key string) error {
	err := os.Remove(c.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Put stores a result atomically under key.
func (c *Cache) Put(key string, r *experiments.Result) error {
	return c.put(key, WireResult{Result: r})
}

// put stores w atomically under key.
func (c *Cache) put(key string, w WireResult) error {
	b, err := json.Marshal(w)
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := c.create(dir, key+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

var (
	modOnce sync.Once
	modVer  string
)

// ModuleVersion identifies the code that produced a result, and is part
// of every cache key: the main module version of a released build, the
// VCS revision of a checkout, "devel" otherwise (a dev tree cannot
// tell its own edits apart; schemaVersion covers deliberate breaks).
// Workers announce it at registration, so a mixed fleet shows in the
// service log before the key-mismatch guard rejects its results.
func ModuleVersion() string {
	modOnce.Do(func() {
		modVer = "devel"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := info.Main.Version; v != "" && v != "(devel)" {
			modVer = v
			return
		}
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				modVer = s.Value
				return
			}
		}
	})
	return modVer
}

// Holds reports, decoding nothing, what the cache holds for job:
// OutcomeCached, OutcomeQuarantined (at its watchdog window), or "".
func (c *Cache) Holds(job Job) Outcome {
	r, err := resolve(job)
	switch {
	case err != nil:
	case c.Has(cacheKey(r, r.Seed)):
		return OutcomeCached
	case c.Has(quarantineKey(r)):
		return OutcomeQuarantined
	}
	return ""
}

// Recall rebuilds job's outcome from the cache alone: its result as a
// hit, or its quarantined outcome; ok=false for neither (or corrupt).
func (c *Cache) Recall(job Job) (jr JobResult, ok bool) {
	r, err := resolve(job)
	if err != nil {
		return JobResult{Job: job, Err: err}, false
	}
	key := cacheKey(r, r.Seed)
	if res, ok, _ := c.Get(key); ok {
		return JobResult{Job: job, Result: res, Cached: true, Key: key}, true
	}
	if w, ok, _ := c.get(quarantineKey(r), true); ok {
		return w.JobResult(job), true
	}
	return JobResult{Job: job, Key: key}, false
}
