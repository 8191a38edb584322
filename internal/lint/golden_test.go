package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// want is one expectation parsed from a `// want unchecked-err "substr"`
// comment: a finding on that line whose message contains substr.
type want struct {
	line   int
	substr string
}

var wantRE = regexp.MustCompile(`want unchecked-err "([^"]+)"`)

// TestGoldenUncheckedErr checks the seeded-violation package errviol
// under a synthetic internal/ import path, both directions: every want
// must fire, and nothing unexpected may fire.
func TestGoldenUncheckedErr(t *testing.T) {
	t.Parallel() // it and TestModuleSelfClean each type-check the standard library from source
	c, err := newChecker(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "errviol"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := c.checkDir(dir, c.module+"/internal/errviol")
	if err != nil {
		t.Fatalf("testdata package errviol does not type-check: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "errviol.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
			wants = append(wants, want{line: i + 1, substr: m[1]})
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want comments in errviol")
	}
	const file = "internal/lint/testdata/src/errviol/errviol.go"
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.File == file && d.Line == w.line && strings.Contains(d.Message, w.substr) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic: %s:%d containing %q", file, w.line, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestModuleSelfClean is the gate: the simulator's own source must
// produce zero findings, and Check fails outright on a partial load
// (a package that does not type-check could hide findings).
func TestModuleSelfClean(t *testing.T) {
	t.Parallel()
	diags, err := Check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("module did not fully load: %v", err)
	}
	for _, d := range diags {
		t.Errorf("module must lint clean, found: %s\n\tfix: handle the error, or assign to _ to record that ignoring it is intentional", d)
	}
}

// TestRunOrderDeterministic checks a module with findings in several
// packages, files and columns twice and requires identical output in
// (file, line, col) order: the order is part of the check's contract
// (CI diffs must be stable).
func TestRunOrderDeterministic(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":            "module m\n",
		"internal/p/z.go":   "package p\n\nfunc F() error { return nil }\n\nfunc g() { F(); F() }\n",
		"internal/p/a.go":   "package p\n\nfunc h() {\n\tF()\n}\n",
		"internal/q/q.go":   "package q\n\nimport \"m/internal/p\"\n\nfunc g() { p.F() }\n",
		"internal/q/r/r.go": "package r\n\nimport \"m/internal/p\"\n\nfunc g() { p.F() }\n",
	})
	a, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatalf("got %d diagnostics, want 5: %v", len(a), a)
	}
	if !slices.Equal(a, b) {
		t.Errorf("output differs across runs:\n%v\n%v", a, b)
	}
	want := []string{"internal/p/a.go:4:2", "internal/p/z.go:5:12", "internal/p/z.go:5:17", "internal/q/q.go:5:12", "internal/q/r/r.go:5:12"}
	for i, d := range a {
		if !strings.HasPrefix(d.String(), want[i]+": ") {
			t.Errorf("diagnostic %d is %s, want it at %s", i, d, want[i])
		}
	}
}

// TestDiagnosticString pins the line format TestModuleSelfClean prints
// for each finding, whose [unchecked-err] tag the kill matrix reads.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/x/x.go", Line: 3, Col: 2, Message: "m"}
	if got, want := d.String(), "internal/x/x.go:3:2: [unchecked-err] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortDiagnostics(t *testing.T) {
	in := []Diagnostic{
		{File: "x.go", Line: 9, Col: 1, Message: "m"},
		{File: "x.go", Line: 9, Col: 1, Message: "a"},
		{File: "w.go", Line: 20, Col: 5, Message: "m"},
		{File: "x.go", Line: 2, Col: 7, Message: "m"},
		{File: "x.go", Line: 2, Col: 3, Message: "m"},
	}
	sortDiagnostics(in)
	wantOrder := []Diagnostic{
		{File: "w.go", Line: 20, Col: 5, Message: "m"},
		{File: "x.go", Line: 2, Col: 3, Message: "m"},
		{File: "x.go", Line: 2, Col: 7, Message: "m"},
		{File: "x.go", Line: 9, Col: 1, Message: "a"},
		{File: "x.go", Line: 9, Col: 1, Message: "m"},
	}
	for i := range wantOrder {
		if in[i] != wantOrder[i] {
			t.Errorf("position %d: got %s, want %s", i, in[i], wantOrder[i])
		}
	}
}
