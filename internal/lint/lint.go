// Package lint is a suite of static analyzers that machine-check the repo's
// convention-only invariants — simulator determinism, paper-runner kernel
// pinning, read-only adjacency and bound-argument plumbing. The paper's
// figures (Table II, Fig 7, Figs 13–16) are only trustworthy when these
// invariants hold, so they are enforced at the Go-source level: the one
// runner is TestRepoIsClean, which every `go test ./...` runs over the whole
// module (testdata fixtures excluded), the same way GPM systems
// machine-check symmetry/ordering invariants instead of hand-maintaining
// them. An invariant lives here only when nothing cheaper holds it: a type
// that makes the violation unrepresentable, `go vet` (copied locks), or a
// runtime test (zero-alloc hot paths, goroutine joins) comes first — DESIGN
// decision 10 has the table.
//
// The suite is built directly on go/ast and go/types (the build environment
// has no module proxy, so golang.org/x/tools/go/analysis is unavailable);
// the Analyzer/Pass/Diagnostic shapes deliberately mirror that API so the
// analyzers can be ported to a multichecker if x/tools ever becomes
// available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one invariant checker; it receives one Pass per target package.
type Analyzer struct {
	Name string
	Doc  string

	// Scope restricts the analyzer to packages whose import path matches one
	// of the entries (exact or suffix). Empty means every package.
	Scope []string

	Run func(*Pass)
}

// applies reports whether the analyzer's scope covers pkgPath.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer invocation's inputs and its report sink.
type Pass struct {
	Pkg *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// calleeOf resolves the static callee of a call expression in pkg, or nil
// when the callee is not a declared function/method (function values,
// builtins, conversions).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// rootIdent returns the base identifier of an lvalue-ish expression chain
// (a, a.b.c, a[i].b, *a), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
