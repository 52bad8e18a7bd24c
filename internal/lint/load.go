package lint

// Package loading and type checking on the standard library alone. The
// loader walks the module, lets go/build pick each directory's files for the
// host platform, parses every non-test package, topologically resolves
// intra-module imports itself and delegates out-of-module (stdlib) imports to
// the go/importer source importer, so it works with an empty module cache and
// no network — the environment the analyzers must run in.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("repro/internal/sim")
	Dir   string // absolute directory
	Name  string // package name
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Testdata marks packages loaded explicitly from a testdata directory
	// (analyzer fixtures); pattern expansion skips them like the go tool
	// does.
	Testdata bool
}

// Program is a loaded module: every package plus the shared FileSet.
type Program struct {
	Fset   *token.FileSet
	Root   string // module root (directory containing go.mod)
	Module string // module path

	pkgs     map[string]*Package
	checking map[string]bool // import-cycle detection
	stdlib   types.Importer
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// Load parses and type-checks every non-test, non-testdata package under
// root (the directory containing go.mod).
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %v (is %s a module root?)", err, root)
	}
	m := moduleRE.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	prog := &Program{
		Fset:     fset,
		Root:     root,
		Module:   string(m[1]),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
		stdlib:   importer.ForCompiler(fset, "source", nil),
	}
	dirs, err := prog.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := prog.load(dir, prog.importPathFor(dir), false); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// packageDirs finds every directory under the root holding Go files that
// build on the host, skipping testdata, vendor, and hidden directories.
func (p *Program) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(p.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != p.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// sourceFiles lists dir's non-test Go files the way `go build` would select
// them for the host platform: go/build applies the _GOOS/_GOARCH filename
// rule and the //go:build lines, so per-platform file pairs (mmap_unix.go /
// mmap_stub.go) don't collide as duplicate declarations. A directory with
// nothing to build yields an empty list.
func sourceFiles(dir string) ([]string, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, nil
		}
		return nil, err
	}
	return bp.GoFiles, nil
}

// importPathFor maps an absolute directory under the root to its import
// path.
func (p *Program) importPathFor(dir string) string {
	rel, err := filepath.Rel(p.Root, dir)
	if err != nil || rel == "." {
		return p.Module
	}
	return p.Module + "/" + filepath.ToSlash(rel)
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.pkgs[path] }

// Packages returns every loaded package sorted by import path.
func (p *Program) Packages() []*Package {
	out := make([]*Package, 0, len(p.pkgs))
	for _, pkg := range p.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LoadDir loads one extra directory (an analyzer testdata fixture) into the
// program. Its intra-module imports must resolve to already-loadable
// packages.
func (p *Program) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := p.load(dir, p.importPathFor(dir), true)
	if err != nil {
		return nil, err
	}
	pkg.Testdata = true
	return pkg, nil
}

// load parses and type-checks one package directory, recursively loading
// intra-module dependencies first.
func (p *Program) load(dir, path string, testdata bool) (*Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if p.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	p.checking[path] = true
	defer delete(p.checking, path)

	srcs, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range srcs {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Resolve intra-module imports first so the importer below only ever
	// sees ready packages.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == p.Module || strings.HasPrefix(ip, p.Module+"/") {
				sub := filepath.Join(p.Root, filepath.FromSlash(strings.TrimPrefix(ip, p.Module)))
				if _, err := p.load(sub, ip, false); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	cfg := &types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if ip == p.Module || strings.HasPrefix(ip, p.Module+"/") {
				pkg, ok := p.pkgs[ip]
				if !ok {
					return nil, fmt.Errorf("lint: unresolved module import %s", ip)
				}
				return pkg.Types, nil
			}
			return p.stdlib.Import(ip)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := cfg.Check(path, p.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", path, errs[0])
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Name:  files[0].Name.Name,
		Files: files,
		Types: tpkg,
		Info:  info,
		// Fixture packages can also arrive as import dependencies of other
		// fixtures, so classify by location, not by entry point.
		Testdata: testdata || strings.Contains(filepath.ToSlash(dir), "/testdata/"),
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
