package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// Testdata reclassifications must point at packages that still exist
	// — a stale entry would silently widen an exemption.
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
		a := rule(t, name)
		return a.Applies == nil || a.Applies(m, campaign)
	}

	for _, rule := range []string{"determinism", "hotpath-alloc"} {
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
		if a.Name == "goroutine-lifecycle" {
			continue // service-scope rule: sim packages may not spawn goroutines at all
		}
		if a.Applies != nil && !a.Applies(m, cam) {
			t.Errorf("rule %s does not apply to internal/cam; sim packages must keep full coverage", a.Name)
		}
	}
}

// TestBridgeFileScope pins that there is no per-file exemption any more:
// a file of a simulation package — here one named after the old bridge
// file, sim/parallel.go — that spawns a goroutine is a determinism
// finding like any other.
func TestBridgeFileScope(t *testing.T) {
	m := testModule(t)
	dir := t.TempDir()
	src := "package bridge\n\nfunc Spawn(done chan struct{}) {\n\tgo func() { close(done) }()\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "parallel.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := m.LoadDir(dir, m.Name+"/internal/sim/bridge")
	if err != nil {
		t.Fatal(err)
	}
	if !isSimPackage(m, pkg.Path) {
		t.Fatalf("%s does not classify as simulation code", pkg.Path)
	}
	diags := Run(m, []*Package{pkg}, []*Analyzer{rule(t, "determinism")})
	if len(diags) != 1 || diags[0].Line != 4 || !strings.Contains(diags[0].Message, "go statement") {
		t.Fatalf("want one go-statement finding on parallel.go:4, got %v", diags)
	}
}

// TestConcurrencyRuleApplies pins the Applies scoping of the
// concurrency family: guarded-field runs on every internal package,
// goroutine-lifecycle only outside simulation scope.
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

	applies := func(name string, pkg *Package) bool {
		a := rule(t, name)
		return a.Applies == nil || a.Applies(m, pkg)
	}

	for _, pkg := range []*Package{sim, cam, dispatch} {
		if !applies("guarded-field", pkg) {
			t.Errorf("rule guarded-field must apply to %s: lock discipline is scope-independent", pkg.Path)
		}
	}
	if applies("goroutine-lifecycle", sim) || applies("goroutine-lifecycle", cam) {
		t.Error("goroutine-lifecycle must not apply to simulation packages; determinism already bans their goroutines")
	}
	if !applies("goroutine-lifecycle", dispatch) {
		t.Error("goroutine-lifecycle must apply to internal/dispatch")
	}
	for _, gone := range []string{"mailbox-order", "shard-escape", "lock-order"} {
		if slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == gone }) {
			t.Errorf("rule %s is retired and must be unknown", gone)
		}
	}
}
