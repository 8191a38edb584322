package lint

import (
	"slices"
	"strings"
	"testing"
)

// applies reports whether rule a runs on the package at path.
func applies(m *Module, a *Analyzer, path string) bool {
	return a.Applies == nil || a.Applies(m, &Package{Path: path})
}

// TestScopeComplete pins each rule's scope to every internal/ package
// the module loads — simulation and service code alike — and nothing
// outside internal/, so narrowing a rule's Applies shows up here.
func TestScopeComplete(t *testing.T) {
	m := testModule(t)
	var internal []string
	for _, pkg := range m.Packages {
		in := isInternal(m, pkg.Path)
		if in {
			internal = append(internal, strings.TrimPrefix(pkg.Path, m.Name+"/internal/"))
		}
		for _, a := range All() {
			if got := applies(m, a, pkg.Path); got != in {
				t.Errorf("rule %s applies to %s: %v, want %v", a.Name, pkg.Path, got, in)
			}
		}
	}
	for _, want := range []string{"core", "sim", "campaign", "dispatch", "runner"} {
		if !slices.Contains(internal, want) {
			t.Errorf("module load did not find internal/%s among %v", want, internal)
		}
	}
}

// findPackage returns the loaded package at internal/<rel>, failing the
// test if the module load did not see it.
func findPackage(t *testing.T, m *Module, rel string) *Package {
	t.Helper()
	for _, pkg := range m.Packages {
		if pkg.Path == m.Name+"/internal/"+rel {
			return pkg
		}
	}
	t.Fatalf("module load did not find internal/%s", rel)
	return nil
}

// TestCampaignScope: service code is linted by every rule — there is no
// service-scope exemption — so internal/campaign keeps unchecked-err,
// which alone kills the campaign store's dropped-Sync mutant.
func TestCampaignScope(t *testing.T) {
	m := testModule(t)
	campaign := findPackage(t, m, "campaign")
	for _, a := range All() {
		if a.Applies != nil && !a.Applies(m, campaign) {
			t.Errorf("rule %s does not apply to internal/campaign; service code must stay linted", a.Name)
		}
	}
}

// TestSimScopeApplies is the inverse guard: the core simulation packages
// must be covered by every rule, so narrowing a rule's scope cannot
// silently shrink coverage of the engine.
func TestSimScopeApplies(t *testing.T) {
	m := testModule(t)
	for _, rel := range []string{"core", "sim"} {
		pkg := findPackage(t, m, rel)
		for _, a := range All() {
			if a.Applies != nil && !a.Applies(m, pkg) {
				t.Errorf("rule %s does not apply to internal/%s; sim packages must keep full coverage", a.Name, rel)
			}
		}
	}
}

// TestScopeDefaultsClosed: a package the module load never saw — as the
// testdata packages loaded under synthetic internal/ paths are — is
// linted by every rule, so a new package needs no entry anywhere to be
// covered.
func TestScopeDefaultsClosed(t *testing.T) {
	m := testModule(t)
	path := m.Name + "/internal/not-a-real-package"
	for _, a := range All() {
		if !applies(m, a, path) {
			t.Errorf("rule %s does not apply to %s", a.Name, path)
		}
	}
}

// TestRetiredRulesUnknown: the rules whose kills moved to tests are out
// of the suite, and so out of the kill matrix's columns. Lock
// discipline is held by -race tests (DESIGN.md §7).
func TestRetiredRulesUnknown(t *testing.T) {
	for _, gone := range []string{"guarded-field", "determinism", "goroutine-lifecycle", "mailbox-order", "shard-escape", "lock-order"} {
		if slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == gone }) {
			t.Errorf("rule %s is retired and must be unknown", gone)
		}
	}
}
