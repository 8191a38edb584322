// Package lint is the repo's determinism and hot-path static-analysis
// suite: a stdlib-only engine (go/parser + go/types + go/importer, no
// x/tools dependency) that loads every package in the module and runs
// a pluggable set of analyzers over the type-checked ASTs.
//
// The rules exist because the repo's verification stack — golden
// digests (PR 2), scripted fault replay (PR 3), the differential
// oracle (PR 4) — all assume the engine is byte-identically replayable
// from (seed, config). Nothing about Go enforces that: one time.Now,
// one global math/rand draw, one ranged map feeding simulation state,
// or one stray goroutine silently breaks replay, and the breakage only
// surfaces later as a flaky golden test. These analyzers move those
// rules into the build.
//
// Diagnostics are suppressible per line with
//
//	//lint:ignore RULE reason
//
// placed on, or on the line above, the offending code, or per file
// with //lint:file-ignore RULE reason. The reason is mandatory: a
// suppression without a justification is itself a diagnostic.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: where, which rule, what, and (optionally)
// how to fix it. File is module-root-relative so output is stable
// across checkouts and CI runners.
type Diagnostic struct {
	Rule       string `json:"rule"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one pluggable rule.
type Analyzer struct {
	Name string // rule id, used in output and //lint:ignore directives
	Doc  string // one-line description

	// Applies reports whether the analyzer should run on pkg at all
	// (scope filtering: most rules only cover simulation packages).
	Applies func(m *Module, pkg *Package) bool

	// Run inspects one package and reports findings through pass.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Module   *Module
	Pkg      *Package
	Fset     *token.FileSet
	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg, suggestion string) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Module.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	*p.sink = append(*p.sink, Diagnostic{
		Rule:       p.analyzer.Name,
		File:       file,
		Line:       position.Line,
		Col:        position.Column,
		Message:    msg,
		Suggestion: suggestion,
	})
}

// Reportf is Report with formatting and no suggestion.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...), "")
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		GoroutineLifecycle(),
		GuardedField(),
		HotpathAlloc(),
		LockOrder(),
		PartitionSafety(),
		PhaseDiscipline(),
		PoolHygiene(),
		UncheckedErr(),
	}
}

// ByName selects analyzers from the suite by rule id (comma-separated
// order does not matter). Unknown names are an error so a CI config
// typo cannot silently disable a rule.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return out, nil
}

// KnownRules returns the rule ids a suppression directive may name.
func KnownRules() []string {
	var ids []string
	for _, a := range All() {
		ids = append(ids, a.Name)
	}
	ids = append(ids, RuleBadDirective)
	sort.Strings(ids)
	return ids
}

// Run executes the given analyzers over pkgs, applies //lint:ignore
// suppressions, and returns the surviving diagnostics in deterministic
// (file, line, col, rule, message) order — CI diffs must be stable, so
// the ordering is part of the contract and covered by tests.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}

	var supps []suppression
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			fs, bad := parseFileSuppressions(m.Fset, f, known)
			supps = append(supps, fs...)
			for _, d := range bad {
				d.File = relFile(m, pkg.Filenames[i])
				diags = append(diags, d)
			}
		}
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(m, pkg) {
				continue
			}
			pass := &Pass{Module: m, Pkg: pkg, Fset: m.Fset, analyzer: a, sink: &diags}
			a.Run(pass)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, supps) {
			kept = append(kept, d)
		}
	}
	SortDiagnostics(kept)
	// A site can be reached through two analysis routes (e.g. a ticker
	// closure nested in a hot method); identical findings collapse.
	dedup := kept[:0]
	for i, d := range kept {
		if i == 0 || d != kept[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup
}

// SortDiagnostics orders diagnostics by (file, line, col, rule,
// message): the deterministic order every consumer relies on.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

func relFile(m *Module, file string) string {
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}
