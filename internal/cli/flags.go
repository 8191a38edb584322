// Package cli is ccfit-run, the one client: every shared flag is
// declared once here, Run holds the repo's only local-vs-`-server`
// switch, and Main dispatches on the first argument — the verbs sweep,
// loadcurve and sim, else the figures (which ccfit-figures also runs,
// under its own name).
package cli

import (
	"flag"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/runner"
)

// Flags holds the value of every shared flag. A tool starts from
// Defaults, may change a default before Register, and registers the
// flags it accepts.
type Flags struct {
	// grid: which cells the campaign covers
	Seed     int64
	Seeds    int
	Schemes  string
	MS       float64
	Faults   string
	Watchdog int64
	// execution: how and where the cells run
	Workers       int
	Cache         string
	CacheMaxBytes int64
	Timeout       time.Duration
	Server        string
	Verbose       bool
	CPUProfile    string
	MemProfile    string
	// output: what is written besides the rendered tables
	CSV      string
	Manifest string
	List     bool
}

// Defaults returns the shared flags' default values.
func Defaults() Flags {
	return Flags{Seed: 1, Seeds: 1, Workers: runtime.GOMAXPROCS(0)}
}

// Register is the one declaration of every shared flag. It binds the
// named ones to fs — all of them when no name is given — with the
// field's current value as the default.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Int64Var(&f.Seed, "seed", f.Seed, "base simulation seed (identical seeds give identical runs)")
	all.IntVar(&f.Seeds, "seeds", f.Seeds, "replications per scheme or sweep point (seeds seed..seed+N-1); >1 prints mean±sd tables; a cell that never observes its seed runs in each slot that claims one of its seeds before its first run ends (in each worker on -server), and its other seeds read cached")
	all.StringVar(&f.Schemes, "schemes", f.Schemes, "comma-separated scheme list (empty = each experiment's own set)")
	all.Float64Var(&f.MS, "ms", f.MS, "simulated milliseconds per cell: truncates registered experiments (0 = full length; distinct cache keys)")
	// Kept only for bench/'s command lines (DESIGN.md §9 lists the bench-only names).
	all.Int("sim-workers", 1, "ignored: every simulation runs on one engine (accepted so existing command lines still parse)")
	all.StringVar(&f.Faults, "faults", f.Faults, "inject a deterministic fault script into every job (JSON; see scripts/faults/)")
	all.Int64Var(&f.Watchdog, "watchdog", f.Watchdog, "forward-progress watchdog window in cycles (0 = default 262144, -1 = disable)")

	all.IntVar(&f.Workers, "workers", f.Workers, "parallel simulation workers (ccfit-serve: in-process slots only; remote workers claim from the same queue, and the slots run jobs only while none is live)")
	all.StringVar(&f.Cache, "cache", f.Cache, "content-addressed result cache directory (empty = caching off; ccfit-serve: <data>/cache)")
	all.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", f.CacheMaxBytes, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
	all.DurationVar(&f.Timeout, "timeout", f.Timeout, "per-job wall-clock timeout (0 = none)")
	all.StringVar(&f.Server, "server", f.Server, "ccfit-serve base URL: run the campaign there instead of in-process (ccfit-worker: the service to pull jobs from)")
	all.BoolVar(&f.Verbose, "v", f.Verbose, "stream per-job progress lines to stderr")
	all.StringVar(&f.CPUProfile, "cpuprofile", f.CPUProfile, "write a CPU profile of the campaign to this file")
	all.StringVar(&f.MemProfile, "memprofile", f.MemProfile, "write a post-campaign heap profile to this file")

	all.StringVar(&f.CSV, "csv", f.CSV, "also write one CSV per experiment (and manifest.json) into this directory")
	all.StringVar(&f.Manifest, "manifest", f.Manifest, "write the JSON run manifest here (default: <csv>/manifest.json when -csv is set)")
	all.BoolVar(&f.List, "list", f.List, "list valid experiment ids and exit")
	all.VisitAll(func(fl *flag.Flag) {
		if len(names) == 0 || slices.Contains(names, fl.Name) {
			fs.Var(fl.Value, fl.Name, fl.Usage)
		}
	})
}

// OpenCache opens the -cache directory; nil when caching is off.
func (f *Flags) OpenCache() (*runner.Cache, error) {
	if f.Cache == "" {
		return nil, nil
	}
	return runner.OpenCache(f.Cache)
}

// SettleCache is the cache upkeep a tool owes under -cache-max-bytes:
// evict least-recently-used entries beyond the bound. Without the flag
// there is nothing to do — the entry files are the cache's whole state.
func (f *Flags) SettleCache(cache *runner.Cache, logf func(format string, args ...any)) {
	if f.CacheMaxBytes <= 0 {
		return
	}
	stats, err := cache.GC(f.CacheMaxBytes)
	switch {
	case err != nil:
		logf("cache GC: %v", err)
	case stats.Evicted > 0:
		logf("cache GC: evicted %d entries, freed %d bytes", stats.Evicted, stats.Freed)
	}
}

// schemeList splits -schemes; nil means each experiment's own set.
func (f *Flags) schemeList() []string {
	if f.Schemes == "" {
		return nil
	}
	out := strings.Split(f.Schemes, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}
