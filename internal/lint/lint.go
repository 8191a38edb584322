// Package lint is the repo's static analysis: a stdlib-only engine
// (go/parser + go/types + go/importer, no x/tools dependency) that loads
// every package in the module and runs one rule over the type-checked
// ASTs of its internal/ packages. unchecked-err keeps errors from
// vanishing on the durable write paths, which no test makes fail. A
// rule stays only for the kill-matrix rows no test rejects (DESIGN.md
// §7); what a test can see — replay from (seed, config), goroutines
// that outlive shutdown, fields written without their lock — is left
// to the tests.
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
	Name string // rule id, used in output and the kill matrix's columns

	// Applies reports whether the analyzer should run on pkg at all
	// (unchecked-err covers the internal/ packages only).
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
	*p.sink = append(*p.sink, Diagnostic{
		Rule:       p.analyzer.Name,
		File:       relFile(p.Module, position.Filename),
		Line:       position.Line,
		Col:        position.Column,
		Message:    msg,
		Suggestion: suggestion,
	})
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		UncheckedErr(),
	}
}

// Run executes the given analyzers over pkgs and returns their
// diagnostics in deterministic (file, line, col, rule, message) order —
// CI diffs must be stable, so the ordering is part of the contract and
// covered by tests.
func Run(m *Module, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(m, pkg) {
				continue
			}
			pass := &Pass{Module: m, Pkg: pkg, Fset: m.Fset, analyzer: a, sink: &diags}
			a.Run(pass)
		}
	}
	SortDiagnostics(diags)
	return diags
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
