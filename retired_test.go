package flexminer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// retiredNames are exported identifiers nothing reads: each stays declared
// only because benchmark/ compiles against it and a PR may not edit the
// benchmark it is measured by. Benchmark round two (ROADMAP 1f) deletes them,
// their last users in benchmark/, and this test. testsIn names the one
// directory whose _test.go files may still call a retired function — it has a
// body benchmark/ runs, so its own tests stay.
var retiredNames = map[string]struct{ testsIn string }{
	// The hub-bitmap index (DESIGN decision 8).
	"HubBitmaps":      {},
	"HubIndex":        {},
	"HubIndexer":      {},
	"IntersectBitmap": {testsIn: "internal/setops"},
	"BitmapWords":     {testsIn: "internal/setops"},
	// The aux-mode knob (DESIGN decision 14).
	"AuxGraph": {},
	"AuxMode":  {},
	"AuxOff":   {},
	"AuxAuto":  {},
	// Work stealing (DESIGN decision 9).
	"OnSteal":     {},
	"OnStealTier": {},
	"StealCross":  {},
}

// TestRetiredNamesHaveNoReaders parses every Go file of the module outside
// benchmark/ and fails on any identifier from retiredNames that is neither a
// retired name's declaration nor inside one (AuxGraph's type is AuxMode;
// HubIndexer's method returns *HubIndex) — so a shim cannot grow a caller
// before it is deleted. Comments are not identifiers and pass.
func TestRetiredNamesHaveNoReaders(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var declared []*ast.Ident
			switch n := n.(type) {
			case *ast.Field:
				declared = n.Names
			case *ast.ValueSpec:
				declared = n.Names
			case *ast.TypeSpec:
				declared = []*ast.Ident{n.Name}
			case *ast.FuncDecl:
				declared = []*ast.Ident{n.Name}
			case *ast.Ident:
				r, retired := retiredNames[n.Name]
				inOwnTest := r.testsIn != "" && filepath.ToSlash(filepath.Dir(path)) == r.testsIn && strings.HasSuffix(path, "_test.go")
				if retired && !inOwnTest {
					t.Errorf("%s: retired name %s has a reader outside benchmark/", fset.Position(n.Pos()), n.Name)
				}
			}
			for _, id := range declared {
				if _, retired := retiredNames[id.Name]; retired {
					return false // a retired declaration: skip it whole
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
