package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared: loading type-checks the
// standard library from source, which dominates the suite's runtime.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func testModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule(filepath.Join("..", "..")) })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

// runTestdata loads one seeded-violation package under a synthetic
// internal/ import path (so analyzer scoping treats it exactly like
// simulation code) and runs the full suite over it.
func runTestdata(t *testing.T, name string) ([]Diagnostic, string) {
	t.Helper()
	m := testModule(t)
	preErrs := len(m.TypeErrors)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := m.LoadDir(dir, m.Name+"/internal/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if extra := m.TypeErrors[preErrs:]; len(extra) > 0 {
		t.Fatalf("testdata package %s does not type-check: %v", name, extra)
	}
	abs, err := filepath.Abs(filepath.Join(dir, name+".go"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(m.Root, abs)
	if err != nil {
		t.Fatal(err)
	}
	return Run(m, []*Package{pkg}, All()), filepath.ToSlash(rel)
}

// want is one expectation parsed from a `// want RULE "substr"`
// comment: the named rule must fire on that line with a message
// containing substr.
type want struct {
	line   int
	rule   string
	substr string
}

var wantRE = regexp.MustCompile(`want ([a-z-]+) "([^"]+)"`)

func parseWants(t *testing.T, name string) []want {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", name, name+".go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for i, line := range strings.Split(string(data), "\n") {
		for _, mres := range wantRE.FindAllStringSubmatch(line, -1) {
			wants = append(wants, want{line: i + 1, rule: mres[1], substr: mres[2]})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments in testdata package %s", name)
	}
	return wants
}

// checkGolden matches produced diagnostics against expectations, both
// directions: every want must fire, and nothing unexpected may fire.
func checkGolden(t *testing.T, diags []Diagnostic, file string, wants []want) {
	t.Helper()
	matchedDiag := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matchedDiag[i] || d.File != file || d.Line != w.line || d.Rule != w.rule {
				continue
			}
			if !strings.Contains(d.Message, w.substr) {
				continue
			}
			matchedDiag[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic: %s:%d [%s] containing %q", file, w.line, w.rule, w.substr)
		}
	}
	for i, d := range diags {
		if !matchedDiag[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestGoldenDeterminism(t *testing.T)        { testGolden(t, "detviol") }
func TestGoldenGoroutineLifecycle(t *testing.T) { testGolden(t, "goroviol") }
func TestGoldenGuardedField(t *testing.T)       { testGolden(t, "guardviol") }
func TestGoldenHotpathAlloc(t *testing.T)       { testGolden(t, "hotviol") }
func TestGoldenLockOrder(t *testing.T)          { testGolden(t, "lockordviol") }
func TestGoldenPhaseDiscipline(t *testing.T)    { testGolden(t, "phaseviol") }
func TestGoldenPoolHygiene(t *testing.T)        { testGolden(t, "poolviol") }
func TestGoldenUncheckedErr(t *testing.T)       { testGolden(t, "errviol") }

// partition-safety has two seeded packages, one per contract: mailbox
// order over the real sim.Mailbox, shard escape in a declared bridge
// file.
func TestGoldenMailboxOrder(t *testing.T) { testGolden(t, "mailviol") }
func TestGoldenShardEscape(t *testing.T)  { testGolden(t, "shardviol") }

func testGolden(t *testing.T, name string) {
	diags, file := runTestdata(t, name)
	checkGolden(t, diags, file, parseWants(t, name))
}

// TestGoldenSuppressed pins the end-to-end suppression semantics. The
// expectations are hard-coded (not want comments) because a malformed
// directive under test cannot share its line with another comment.
func TestGoldenSuppressed(t *testing.T) {
	diags, file := runTestdata(t, "suppressed")
	wants := []want{
		{line: 28, rule: RuleBadDirective, substr: "gives no reason"},
		{line: 29, rule: "determinism", substr: "time.Now"},
		{line: 34, rule: RuleBadDirective, substr: `unknown rule "determinsim"`},
		{line: 35, rule: "determinism", substr: "time.Now"},
	}
	checkGolden(t, diags, file, wants)
}

// TestModuleSelfClean is the gate: the simulator's own source must
// produce zero diagnostics with every rule enabled, and the load must
// have type-checked completely (a partial load could hide findings).
func TestModuleSelfClean(t *testing.T) {
	m := testModule(t)
	if len(m.TypeErrors) > 0 {
		t.Fatalf("module did not fully type-check:\n%s", strings.Join(m.TypeErrors, "\n"))
	}
	diags := Run(m, m.Packages, All())
	for _, d := range diags {
		t.Errorf("module must lint clean, found: %s", d)
	}
}

// TestRunOrderDeterministic runs the full suite twice over the module
// and requires byte-identical output: diagnostic order is part of the
// tool's contract (CI diffs must be stable).
func TestRunOrderDeterministic(t *testing.T) {
	m := testModule(t)
	a := Run(m, m.Packages, All())
	b := Run(m, m.Packages, All())
	if len(a) != len(b) {
		t.Fatalf("run 1 produced %d diagnostics, run 2 produced %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("diagnostic %d differs across runs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSortDiagnostics(t *testing.T) {
	in := []Diagnostic{
		{Rule: "b", File: "x.go", Line: 9, Col: 1, Message: "m"},
		{Rule: "a", File: "x.go", Line: 9, Col: 1, Message: "m"},
		{Rule: "a", File: "x.go", Line: 9, Col: 1, Message: "a"},
		{Rule: "a", File: "w.go", Line: 20, Col: 5, Message: "m"},
		{Rule: "a", File: "x.go", Line: 2, Col: 7, Message: "m"},
		{Rule: "a", File: "x.go", Line: 2, Col: 3, Message: "m"},
	}
	SortDiagnostics(in)
	wantOrder := []Diagnostic{
		{Rule: "a", File: "w.go", Line: 20, Col: 5, Message: "m"},
		{Rule: "a", File: "x.go", Line: 2, Col: 3, Message: "m"},
		{Rule: "a", File: "x.go", Line: 2, Col: 7, Message: "m"},
		{Rule: "a", File: "x.go", Line: 9, Col: 1, Message: "a"},
		{Rule: "a", File: "x.go", Line: 9, Col: 1, Message: "m"},
		{Rule: "b", File: "x.go", Line: 9, Col: 1, Message: "m"},
	}
	for i := range wantOrder {
		if in[i] != wantOrder[i] {
			t.Errorf("position %d: got %s, want %s", i, in[i], wantOrder[i])
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"determinism", "pool-hygiene"})
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName(valid) = %v analyzers, err %v", len(as), err)
	}
	if _, err := ByName([]string{"no-such-rule"}); err == nil {
		t.Error("ByName must reject unknown rule ids")
	}
	if _, err := ByName(nil); err == nil {
		t.Error("ByName must reject an empty selection")
	}
}
