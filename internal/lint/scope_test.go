package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScopeComplete requires every internal/ package in the module to
// be explicitly declared in exactly one scope table. A package in
// neither table means someone skipped the classification decision; a
// package in both means the tables disagree about which rules apply.
func TestScopeComplete(t *testing.T) {
	m := testModule(t)
	if un := Unclassified(m, m.Packages); len(un) > 0 {
		t.Errorf("internal packages missing from the scope config in scope.go: %v", un)
	}
	for name := range simScope {
		if _, dup := serviceScope[name]; dup {
			t.Errorf("package %q declared in both simScope and serviceScope", name)
		}
	}
	// The tables must not accumulate stale entries for deleted packages.
	for name := range simScope {
		assertDirExists(t, name)
	}
	for name := range serviceScope {
		assertDirExists(t, name)
	}
	// Bridge files and testdata reclassifications must point at files
	// that still exist — a stale entry would silently widen an exemption.
	for key := range bridgeScope {
		if _, err := os.Stat(filepath.Join("..", filepath.FromSlash(key))); err == nil {
			continue
		}
		if _, err := os.Stat(filepath.Join("testdata", "src", filepath.FromSlash(key))); err == nil {
			continue
		}
		t.Errorf("bridgeScope names %q but no such file exists under internal/ or testdata/src/", key)
	}
	for name := range testdataScope {
		if _, err := os.Stat(filepath.Join("testdata", "src", name)); err != nil {
			t.Errorf("testdataScope names %q but the testdata package is missing: %v", name, err)
		}
	}
}

func assertDirExists(t *testing.T, name string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join("..", name)); err != nil {
		t.Errorf("scope config names internal/%s but the directory is missing: %v", name, err)
	}
}

// TestScopeDefaultsClosed pins the default: an internal/ path outside
// both tables (as the synthetic testdata packages are) classifies as
// simulation code, so a forgotten package cannot dodge the determinism
// rules.
func TestScopeDefaultsClosed(t *testing.T) {
	m := testModule(t)
	path := m.Name + "/internal/not-a-real-package"
	class, explicit := scopeOf(m, path)
	if explicit {
		t.Errorf("scopeOf(%q) claims an explicit classification", path)
	}
	if class != ScopeSim {
		t.Errorf("scopeOf(%q) = %v, want default-closed ScopeSim", path, class)
	}
	if !isSimPackage(m, path) {
		t.Errorf("isSimPackage(%q) = false, want true (default-closed)", path)
	}
}

// TestCampaignScope is the regression test for the campaign service's
// exemption: internal/campaign is service code (goroutines, wall-clock
// time, HTTP serving), so the determinism family must not apply to it —
// but the scope-independent rules still must. This pins the per-rule
// Applies behavior, not just the table contents.
func TestCampaignScope(t *testing.T) {
	m := testModule(t)
	var campaign *Package
	for _, pkg := range m.Packages {
		if pkg.Path == m.Name+"/internal/campaign" {
			campaign = pkg
			break
		}
	}
	if campaign == nil {
		t.Fatal("module load did not find internal/campaign")
	}

	applies := func(name string) bool {
		as, err := ByName([]string{name})
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		a := as[0]
		return a.Applies == nil || a.Applies(m, campaign)
	}

	for _, rule := range []string{"determinism", "hotpath-alloc", "phase-discipline", "pool-hygiene"} {
		if applies(rule) {
			t.Errorf("rule %s applies to internal/campaign; service code must be exempt from the determinism family", rule)
		}
	}
	if !applies("unchecked-err") {
		t.Error("rule unchecked-err does not apply to internal/campaign; service code is still linted by scope-independent rules")
	}
}

// TestSimScopeApplies is the inverse guard: a core simulation package
// must be covered by the full determinism family, so loosening the
// scope config cannot silently shrink coverage.
func TestSimScopeApplies(t *testing.T) {
	m := testModule(t)
	var cam *Package
	for _, pkg := range m.Packages {
		if pkg.Path == m.Name+"/internal/cam" {
			cam = pkg
			break
		}
	}
	if cam == nil {
		t.Fatal("module load did not find internal/cam")
	}
	for _, a := range All() {
		switch a.Name {
		case "phase-discipline":
			continue // applies to sim code except internal/sim itself; cam is covered
		case "goroutine-lifecycle":
			continue // service-scope rule: sim packages may not spawn goroutines at all
		}
		if a.Applies != nil && !a.Applies(m, cam) {
			t.Errorf("rule %s does not apply to internal/cam; sim packages must keep full coverage", a.Name)
		}
	}
	as, err := ByName([]string{"phase-discipline"})
	if err != nil {
		t.Fatal(err)
	}
	if !as[0].Applies(m, cam) {
		t.Error("phase-discipline does not apply to internal/cam")
	}
}

// TestBridgeFileScope pins the per-file bridge classification: exactly
// the declared parallel-engine file is ScopeBridge, while its sibling
// files in the same package keep plain simulation scope. A bridge
// exemption must never leak from one file to the rest of its package.
func TestBridgeFileScope(t *testing.T) {
	m := testModule(t)
	simPath := m.Name + "/internal/sim"
	if got := fileScope(m, simPath, filepath.Join(m.Root, "internal", "sim", "parallel.go")); got != ScopeBridge {
		t.Errorf("fileScope(sim/parallel.go) = %v, want ScopeBridge", got)
	}
	if got := fileScope(m, simPath, filepath.Join(m.Root, "internal", "sim", "sim.go")); got != ScopeSim {
		t.Errorf("fileScope(sim/sim.go) = %v, want ScopeSim", got)
	}
	// Basename matching must not promote a parallel.go in a different
	// package: the key is top-dir qualified.
	if got := fileScope(m, m.Name+"/internal/cam", "parallel.go"); got != ScopeSim {
		t.Errorf("fileScope(cam/parallel.go) = %v, want ScopeSim (bridge keys are package-qualified)", got)
	}
	if fileScope(m, "other/module/pkg", "parallel.go") != ScopeService {
		t.Error("fileScope outside internal/ must fall back to the package class")
	}
}

// TestConcurrencyRuleApplies pins the Applies scoping of the
// concurrency family: guarded-field and lock-order run on every
// internal package, goroutine-lifecycle only outside simulation scope,
// and partition-safety on every simulation package (its mailbox-order
// half is not confined to bridge files) but on no service package.
func TestConcurrencyRuleApplies(t *testing.T) {
	m := testModule(t)
	pkgByPath := make(map[string]*Package)
	for _, pkg := range m.Packages {
		pkgByPath[pkg.Path] = pkg
	}
	sim := pkgByPath[m.Name+"/internal/sim"]
	cam := pkgByPath[m.Name+"/internal/cam"]
	dispatch := pkgByPath[m.Name+"/internal/dispatch"]
	if sim == nil || cam == nil || dispatch == nil {
		t.Fatal("module load is missing internal/sim, internal/cam, or internal/dispatch")
	}

	applies := func(rule string, pkg *Package) bool {
		as, err := ByName([]string{rule})
		if err != nil {
			t.Fatalf("ByName(%q): %v", rule, err)
		}
		return as[0].Applies == nil || as[0].Applies(m, pkg)
	}

	for _, rule := range []string{"guarded-field", "lock-order"} {
		for _, pkg := range []*Package{sim, cam, dispatch} {
			if !applies(rule, pkg) {
				t.Errorf("rule %s must apply to %s: lock discipline is scope-independent", rule, pkg.Path)
			}
		}
	}
	if applies("goroutine-lifecycle", sim) || applies("goroutine-lifecycle", cam) {
		t.Error("goroutine-lifecycle must not apply to simulation packages; determinism already bans their goroutines")
	}
	if !applies("goroutine-lifecycle", dispatch) {
		t.Error("goroutine-lifecycle must apply to internal/dispatch")
	}
	if !applies("partition-safety", sim) || !applies("partition-safety", cam) {
		t.Error("partition-safety must apply to every simulation package: a Mailbox can be drained from any of them")
	}
	if applies("partition-safety", dispatch) {
		t.Error("partition-safety must not apply to service packages")
	}
	for _, gone := range []string{"mailbox-order", "shard-escape"} {
		if _, err := ByName([]string{gone}); err == nil {
			t.Errorf("rule %s merged into partition-safety and must be unknown", gone)
		}
	}
}
