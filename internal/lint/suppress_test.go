package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSuppressSrc(t *testing.T, src string) ([]suppression, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	known := map[string]bool{"guarded-field": true, "unchecked-err": true}
	return parseFileSuppressions(fset, f, known)
}

func TestParseSuppressionsValid(t *testing.T) {
	src := `package s

//lint:file-ignore unchecked-err fixture is best-effort test scaffolding

func f() {
	//lint:ignore guarded-field read before the mutex exists
	_ = 1
	_ = 2 //lint:ignore guarded-field,unchecked-err both rules misfire on generated code
}
`
	supps, bad := parseSuppressSrc(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	if len(supps) != 3 {
		t.Fatalf("got %d suppressions, want 3", len(supps))
	}
	fileWide := supps[0]
	if !fileWide.fileWide || !fileWide.rules["unchecked-err"] || fileWide.line != 3 {
		t.Errorf("file-ignore parsed wrong: %+v", fileWide)
	}
	single := supps[1]
	if single.fileWide || !single.rules["guarded-field"] || len(single.rules) != 1 || single.line != 6 {
		t.Errorf("line ignore parsed wrong: %+v", single)
	}
	if single.reason != "read before the mutex exists" {
		t.Errorf("reason lost: %q", single.reason)
	}
	multi := supps[2]
	if !multi.rules["guarded-field"] || !multi.rules["unchecked-err"] || len(multi.rules) != 2 || multi.line != 8 {
		t.Errorf("comma-list ignore parsed wrong: %+v", multi)
	}
}

func TestParseSuppressionsMalformed(t *testing.T) {
	src := `package s

//lint:ignore
//lint:ignore unchecked-err
//lint:ignore not-a-rule because reasons
`
	supps, bad := parseSuppressSrc(t, src)
	if len(supps) != 0 {
		t.Fatalf("malformed directives must yield no suppressions, got %v", supps)
	}
	if len(bad) != 3 {
		t.Fatalf("got %d malformed-directive diagnostics, want 3: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Rule != RuleBadDirective {
			t.Errorf("malformed directive reported under rule %q, want %q", d.Rule, RuleBadDirective)
		}
	}
	checks := []struct {
		line   int
		substr string
	}{
		{3, "names no rule"},
		{4, "gives no reason"},
		{5, `unknown rule "not-a-rule"`},
	}
	for i, c := range checks {
		if bad[i].Line != c.line || !strings.Contains(bad[i].Message, c.substr) {
			t.Errorf("diagnostic %d = %d %q, want line %d containing %q",
				i, bad[i].Line, bad[i].Message, c.line, c.substr)
		}
	}
}

func TestSuppressedMatching(t *testing.T) {
	supp := suppression{
		file:  "/abs/path/internal/x/x.go",
		line:  10,
		rules: map[string]bool{"unchecked-err": true},
	}
	diag := func(line int, rule, file string) Diagnostic {
		return Diagnostic{Rule: rule, File: file, Line: line}
	}
	rel := "internal/x/x.go"
	cases := []struct {
		name string
		d    Diagnostic
		want bool
	}{
		{"same line", diag(10, "unchecked-err", rel), true},
		{"line below", diag(11, "unchecked-err", rel), true},
		{"two below", diag(12, "unchecked-err", rel), false},
		{"line above", diag(9, "unchecked-err", rel), false},
		{"other rule", diag(10, "guarded-field", rel), false},
		{"other file", diag(10, "unchecked-err", "internal/y/x.go"), false},
	}
	for _, c := range cases {
		if got := suppressed(c.d, []suppression{supp}); got != c.want {
			t.Errorf("%s: suppressed = %v, want %v", c.name, got, c.want)
		}
	}

	wide := supp
	wide.fileWide = true
	if !suppressed(diag(999, "unchecked-err", rel), []suppression{wide}) {
		t.Error("file-wide suppression must cover every line of the file")
	}
	if suppressed(diag(999, "guarded-field", rel), []suppression{wide}) {
		t.Error("file-wide suppression must still be rule-scoped")
	}
}
