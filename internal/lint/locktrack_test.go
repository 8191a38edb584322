package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadGuardviolFacts loads the guardviol fixture under a synthetic
// import path of its own (distinct from the golden test's load, so the
// two tests cannot share or fight over one Package) and builds its
// lock facts.
func loadGuardviolFacts(t *testing.T) *lockFacts {
	t.Helper()
	m := testModule(t)
	preErrs := len(m.TypeErrors)
	dir := filepath.Join("testdata", "src", "guardviol")
	pkg, err := m.LoadDir(dir, m.Name+"/internal/guardviolfacts")
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if extra := m.TypeErrors[preErrs:]; len(extra) > 0 {
		t.Fatalf("guardviol does not type-check: %v", extra)
	}
	return lockFactsFor(pkg)
}

// findEntry returns the entry-held set of the named function/method.
func findEntry(t *testing.T, f *lockFacts, name string) (*types.Func, heldSet) {
	t.Helper()
	for _, u := range f.units {
		if u.fn != nil && u.fn.Name() == name {
			return u.fn, f.entry[u.fn]
		}
	}
	t.Fatalf("no scan unit for function %q", name)
	return nil, nil
}

// TestEntryFixpoint pins the call-graph lock propagation: addLocked
// never locks counter.mu itself, but both of its call sites (add,
// addTwice) provably hold it, so the greatest fixpoint must prove
// counter.mu held at addLocked's entry. Functions reachable from an
// unlocked context must get nothing.
func TestEntryFixpoint(t *testing.T) {
	f := loadGuardviolFacts(t)

	_, entry := findEntry(t, f, "addLocked")
	if len(entry) != 1 {
		t.Fatalf("entry[addLocked] has %d mutexes, want exactly 1", len(entry))
	}
	for mu := range entry {
		if got := f.name(mu); got != "counter.mu" {
			t.Errorf("entry[addLocked] holds %s, want counter.mu", got)
		}
	}

	// bad/poke have no intra-package call sites at all: they are roots,
	// and a root's entry set must be empty (pessimistic).
	for _, name := range []string{"bad", "poke"} {
		if _, entry := findEntry(t, f, name); len(entry) != 0 {
			t.Errorf("entry[%s] = %d mutexes, want none (root function)", name, len(entry))
		}
	}
}

// TestGuardTables pins annotation resolution on the fixture: the
// guarded-by table must map counter.n to counter.mu and entry.hits to
// registry.mu (the Type.mu outer-lock form), the typo annotation must
// surface as a bad-annotation finding, and gauge.val must appear as an
// inference candidate with gauge.mu as its sibling mutex.
func TestGuardTables(t *testing.T) {
	f := loadGuardviolFacts(t)

	guardsByName := map[string]string{}
	for field, mu := range f.guards {
		guardsByName[f.name(field)] = f.name(mu)
	}
	if got := guardsByName["counter.n"]; got != "counter.mu" {
		t.Errorf("guard of counter.n = %q, want counter.mu", got)
	}
	if got := guardsByName["entry.hits"]; got != "registry.mu" {
		t.Errorf("guard of entry.hits = %q, want registry.mu (Type.mu form)", got)
	}
	if len(f.badAnnots) != 1 {
		t.Errorf("got %d bad annotations, want exactly 1 (the wrongName typo)", len(f.badAnnots))
	}

	siblingsByName := map[string]string{}
	for field, mu := range f.siblings {
		siblingsByName[f.name(field)] = f.name(mu)
	}
	if got := siblingsByName["gauge.val"]; got != "gauge.mu" {
		t.Errorf("sibling mutex of gauge.val = %q, want gauge.mu", got)
	}
	// Annotated fields are not inference candidates on top of that.
	if _, dup := siblingsByName["counter.n"]; dup {
		t.Error("counter.n is annotated and must not also be an inference candidate")
	}
}
