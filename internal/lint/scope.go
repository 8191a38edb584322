package lint

import "strings"

// Package scoping: every internal/ package is explicitly classified as
// either simulation code (single-goroutine deterministic engine — the
// determinism family of rules applies) or service code (orchestration,
// serving and tooling around the engine — wall-clock time, goroutines
// and unordered iteration are legitimate there). The classification is
// a declared config, not path-prefix guesswork: adding a package to
// the module without adding it to exactly one of these tables fails
// TestScopeComplete, so the exemption decision is always deliberate
// and reviewed.

// ScopeClass is a package's declared analysis scope.
type ScopeClass int

const (
	// ScopeSim marks deterministic simulation code: the determinism,
	// hotpath-alloc and pool-hygiene rules apply.
	ScopeSim ScopeClass = iota
	// ScopeService marks orchestration/serving/tooling code: only the
	// scope-independent rules (unchecked-err, and the concurrency
	// family) apply.
	ScopeService
)

// simScope declares the simulation packages, keyed by top-level
// directory under internal/. The value documents why the package is
// simulation code (what replayable state it owns).
var simScope = map[string]string{
	"arbiter":     "port/VC arbitration inside the simulated cycle",
	"buffer":      "per-VC queue occupancy is replayed state",
	"cam":         "congested-flow CAM: the paper's isolation core",
	"core":        "engine scaffolding: clock, params, event loop",
	"endnode":     "injection queues and throttling state machines",
	"experiments": "figure/table definitions; expansion feeds cache keys",
	"fault":       "scripted fault injection is part of the replayed run",
	"invariant":   "runtime checks execute inside simulated cycles",
	"link":        "link-level transfer timing",
	"metrics":     "per-cycle counters feed golden digests",
	"network":     "topology wiring and simulated routing fabric",
	"oracle":      "differential oracle re-executes the engine",
	"pkt":         "packet/flit state is replayed byte-for-byte",
	"route":       "deterministic routing decisions",
	"sim":         "the event-driven engine itself",
	"switchfab":   "switch fabric: ingress/egress pipeline state",
	"topo":        "topology construction must be seed-stable",
	"trace":       "event vocabulary core emits through, and tracers called inside the cycle",
	"traffic":     "traffic generators draw from seeded PRNGs",
}

// serviceScope declares the service packages — exempt from the
// determinism family. The value documents why the exemption is sound.
var serviceScope = map[string]string{
	"campaign": "campaign service: HTTP serving, spec files, worker pool — never inside a simulated cycle",
	"cli":      "the campaign tools' front door: flags, signals, wall-clock manifests — never inside a simulated cycle",
	"dispatch": "remote worker fleet: HTTP leases, heartbeats, wall-clock TTLs — never inside a simulated cycle",
	"lint":     "this tool",
	"prof":     "pprof plumbing, never inside a simulated cycle",
	"runner":   "parallel campaign orchestration: goroutines + wall-clock by design",
	"testutil": "test helpers",
}

// testdataScope reclassifies testdata packages whose rule under test
// lives in service scope — the default-closed ScopeSim fallback would
// otherwise bury the rule's own findings under determinism noise.
var testdataScope = map[string]ScopeClass{
	"goroviol": ScopeService,
}

// scopeOf classifies an internal/ package path. explicit reports
// whether the classification came from the tables; unknown internal
// paths (e.g. the testdata packages loaded under synthetic internal/
// paths) default to ScopeSim — default-closed, so a package cannot
// dodge the determinism rules by being forgotten.
func scopeOf(m *Module, path string) (class ScopeClass, explicit bool) {
	rest, ok := strings.CutPrefix(path, m.Name+"/internal/")
	if !ok {
		return ScopeService, false
	}
	top := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		top = rest[:i]
	}
	if class, ok := testdataScope[top]; ok {
		return class, false
	}
	if _, ok := simScope[top]; ok {
		return ScopeSim, true
	}
	if _, ok := serviceScope[top]; ok {
		return ScopeService, true
	}
	return ScopeSim, false
}

// isSimPackage reports whether path is simulation code. Analyzer scope
// checks funnel through here so the testdata packages classify exactly
// like real ones.
func isSimPackage(m *Module, path string) bool {
	class, _ := scopeOf(m, path)
	return class == ScopeSim
}

// isInternal reports whether path is under internal/ at all.
func isInternal(m *Module, path string) bool {
	return strings.HasPrefix(path, m.Name+"/internal/")
}

// simPkgScope is the Applies predicate shared by the determinism
// family of rules.
func simPkgScope(m *Module, pkg *Package) bool { return isSimPackage(m, pkg.Path) }

// Unclassified returns the internal/ package paths in pkgs that appear
// in neither scope table, sorted. A non-empty result means someone
// added a package without declaring its scope; TestScopeComplete turns
// that into a build failure.
func Unclassified(m *Module, pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		if !isInternal(m, pkg.Path) {
			continue
		}
		if _, explicit := scopeOf(m, pkg.Path); !explicit {
			out = append(out, pkg.Path)
		}
	}
	return out
}
