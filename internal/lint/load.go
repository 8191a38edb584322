package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path      string // import path ("repro/internal/sim")
	Files     []*ast.File
	Filenames []string // parallel to Files, absolute, sorted
	Types     *types.Package
	Info      *types.Info
}

// Module is the loaded module: every non-test package, parsed and
// type-checked against each other and the standard library. Loading is
// deliberately stdlib-only (go/parser + go/types + go/importer with
// the "source" compiler) so the linter has no dependency the simulator
// does not already carry.
type Module struct {
	Root string // absolute module root (directory holding go.mod)
	Name string // module path from go.mod
	Fset *token.FileSet

	Packages []*Package // module packages, sorted by import path

	// TypeErrors collects every type-checking error seen while loading.
	// A non-empty list means analysis ran on partial information; the
	// self-gate test treats that as a failure so rules cannot silently
	// stop firing.
	TypeErrors []string

	byPath   map[string]*Package
	checking map[string]bool
	std      types.ImporterFrom
}

// LoadModule parses and type-checks every non-test package under root.
// Directories named testdata, vendor, results and hidden directories
// are skipped, mirroring the go tool's walk.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	name, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:     root,
		Name:     name,
		Fset:     token.NewFileSet(),
		byPath:   map[string]*Package{},
		checking: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
			base == "testdata" || base == "vendor" || base == "results" || base == "node_modules") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		ip := m.Name
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			ip = m.Name + "/" + filepath.ToSlash(rel)
		}
		if _, err := m.load(ip, dir); err != nil {
			return nil, fmt.Errorf("load %s: %w", ip, err)
		}
	}
	for _, p := range m.byPath {
		m.Packages = append(m.Packages, p)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}

// LoadDir parses and type-checks a single extra directory (typically a
// testdata package of seeded violations) as if it had import path
// asPath, resolving its imports through the already-loaded module.
func (m *Module) LoadDir(dir, asPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return m.load(asPath, dir)
}

// load parses and type-checks one directory under the given import
// path, memoized by path.
func (m *Module) load(ip, dir string) (*Package, error) {
	if p, ok := m.byPath[ip]; ok {
		return p, nil
	}
	if m.checking[ip] {
		return nil, fmt.Errorf("import cycle through %s", ip)
	}
	m.checking[ip] = true
	defer delete(m.checking, ip)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	p := &Package{Path: ip}
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
		p.Filenames = append(p.Filenames, full)
	}
	p.Info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: importFunc(func(path string) (*types.Package, error) { return m.importPkg(path, dir) }),
		Error: func(err error) {
			m.TypeErrors = append(m.TypeErrors, err.Error())
		},
	}
	// Check never returns a fatal error here: errors are collected via
	// conf.Error so analysis can still run on whatever type-checked.
	p.Types, _ = conf.Check(ip, m.Fset, p.Files, p.Info)
	m.byPath[ip] = p
	return p, nil
}

// importPkg resolves one import: module-internal paths load (and
// type-check) the corresponding directory; everything else falls back
// to the standard-library source importer.
func (m *Module) importPkg(path, fromDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Name || strings.HasPrefix(path, m.Name+"/") {
		dir := m.Root
		if path != m.Name {
			dir = filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, m.Name+"/")))
		}
		p, err := m.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.ImportFrom(path, fromDir, 0)
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

func hasGoFiles(dir string) bool {
	names, err := goFiles(dir)
	return err == nil && len(names) > 0
}

// goFiles lists the non-test .go files of dir, sorted for determinism.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
