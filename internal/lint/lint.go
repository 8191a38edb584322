// Package lint is the repo's one static check: every expression
// statement in an internal/ package that drops an error result is a
// finding. It keeps errors from vanishing on the durable writes — the
// cache entry, the campaign spec file — which no test makes fail.
// What a test can see (replay from (seed, config), goroutines that
// outlive shutdown, fields written without their lock) is left to the
// tests (DESIGN.md §7). It is stdlib-only: go/parser, go/types and
// go/importer, no x/tools dependency.
//
// An explicit `_ = f()` is accepted as a documented decision; a bare
// call is indistinguishable from a forgotten check. Deliberate
// exemptions (documented never-fail or best-effort sinks):
//   - methods on bytes.Buffer and strings.Builder (their Write/
//     WriteString/WriteByte errors are defined to always be nil),
//   - the fmt.Print/Fprint families: formatted report emission is
//     best-effort by design here — renderers stream human-readable
//     tables, and a failing report writer (closed pipe, full disk)
//     surfaces in the surrounding command, not per line. Errors that
//     guard data integrity (Close, Remove, Encode, ...) stay flagged,
//   - deferred calls: `defer f.Close()` on a read path is conventional
//     cleanup whose error has no receiver.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Diagnostic is one finding. File is module-root-relative so output is
// stable across checkouts and CI runners.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [unchecked-err] %s", d.File, d.Line, d.Col, d.Message)
}

// Check parses and type-checks the non-test files of every package
// under root/internal (testdata skipped) and returns each dropped error
// in (file, line, col) order: CI diffs must be stable. A module it
// cannot fully load — no go.mod, a parse or type error, an import
// cycle — is an error, never a partial result.
func Check(root string) ([]Diagnostic, error) {
	c, err := newChecker(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(filepath.Join(c.root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if len(goFiles(path)) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, dir := range dirs {
		rel, _ := filepath.Rel(c.root, dir)
		ds, err := c.checkDir(dir, c.module+"/"+filepath.ToSlash(rel))
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders diagnostics by (file, line, col, message).
func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Message, b.Message))
	})
}

// checker type-checks the module's packages once each: module imports
// resolve to the packages it checks itself, and only the standard
// library goes through the source importer.
type checker struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*pkg // by import path
	checking     map[string]bool // import paths being checked, for cycles
}

// pkg is one type-checked package.
type pkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func newChecker(root string) (*checker, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	c := &checker{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkg{}, checking: map[string]bool{}}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			c.module = strings.TrimSpace(rest)
		}
	}
	if c.module == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", root)
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	return c, nil
}

// exempt holds the types.Func.FullName prefixes of the never-fail and
// best-effort sinks the package doc lists.
var exempt = []string{"(*bytes.Buffer).", "(*strings.Builder).", "fmt.Print", "fmt.Fprint"}

// checkDir checks the package in dir under import path ip and returns
// its findings, unsorted.
func (c *checker) checkDir(dir, ip string) ([]Diagnostic, error) {
	p, err := c.load(ip, dir)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok || !returnsError(p.info, call) {
				return true
			}
			name := "call"
			if f := funcOf(p.info, call.Fun); f != nil {
				if slices.ContainsFunc(exempt, func(prefix string) bool { return strings.HasPrefix(f.FullName(), prefix) }) {
					return true
				}
				name = f.Name()
			}
			pos := c.fset.Position(call.Pos())
			file, _ := filepath.Rel(c.root, pos.Filename)
			diags = append(diags, Diagnostic{
				File:    filepath.ToSlash(file),
				Line:    pos.Line,
				Col:     pos.Column,
				Message: "result of error-returning " + name + " discarded: a failure here vanishes silently",
			})
			return true
		})
	}
	return diags, nil
}

// load parses and type-checks the non-test files of dir as package ip,
// memoised by ip. The first type error fails the load.
func (c *checker) load(ip, dir string) (*pkg, error) {
	if p, ok := c.pkgs[ip]; ok {
		return p, nil
	}
	if c.checking[ip] {
		return nil, fmt.Errorf("import cycle through %s", ip)
	}
	c.checking[ip] = true
	defer delete(c.checking, ip)

	names := goFiles(dir)
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	p := &pkg{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", ip, err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: importFunc(func(path string) (*types.Package, error) {
		if path == c.module || strings.HasPrefix(path, c.module+"/") {
			rel := strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")
			p, err := c.load(path, filepath.Join(c.root, filepath.FromSlash(rel)))
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
		return c.std.ImportFrom(path, dir, 0)
	})}
	var err error
	if p.types, err = conf.Check(ip, c.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("load %s: %w", ip, err)
	}
	c.pkgs[ip] = p
	return p, nil
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// goFiles lists the non-test .go files of dir in name order; none if
// dir cannot be read.
func goFiles(dir string) []string {
	ents, _ := os.ReadDir(dir)
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
			!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			names = append(names, n)
		}
	}
	return names
}

// returnsError reports whether any result of call is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.Types[call].Type
	if tuple, ok := t.(*types.Tuple); ok {
		for i := range tuple.Len() {
			if isError(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return t != nil && isError(t)
}

func isError(t types.Type) bool { return types.Identical(t, types.Universe.Lookup("error").Type()) }

// funcOf resolves a call's Fun to its *types.Func, unwrapping parens;
// nil for builtins, type conversions and function values.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}
