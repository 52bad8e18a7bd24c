package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageIsSequential pins the design: the simulator is one thread of
// execution. No non-test file starts a goroutine, sends on a channel or makes
// one (cancelled()'s receive from ctx.Done() is the package's only channel
// operation), so there is no interleaving to argue about and a PE's panic is
// its caller's.
func TestPackageIsSequential(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SendStmt:
				t.Errorf("%s: channel send", fset.Position(n.Pos()))
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "make" && len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						t.Errorf("%s: make(chan …)", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
	}
}
