package lint

// kernelpin guards the meaning of the paper figures. Table II, Fig 7 and the
// accelerator speedup baselines model merge-based systems (GraphZero,
// AutoMine) reading full adjacency rows, so the paper runners of
// internal/bench obtain their core.Options from core.PaperBaseline and
// nowhere else. The rule is package-local: inside the scoped packages no
// core.Options composite literal may appear and no field of a core.Options
// value may be written. The run-time half lives in TestTable2MetricsGolden,
// which pins the adaptive-kernel and aux counters at 0 on every paper row.

import (
	"go/ast"
	"go/types"
)

// Kernelpin is the production instance.
var Kernelpin = NewKernelpin("repro/internal/bench")

// NewKernelpin builds a kernelpin instance over the given packages (tests
// point it at the fixture package).
func NewKernelpin(scope ...string) *Analyzer {
	return &Analyzer{
		Name:  "kernelpin",
		Doc:   "paper runners take core.Options from core.PaperBaseline: no Options literal, no Options field write",
		Scope: scope,
		Run:   runKernelpin,
	}
}

func runKernelpin(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isCoreOptions(pass.Pkg.Info.TypeOf(n)) {
					pass.Reportf(n.Pos(), "core.Options literal in a paper-runner package; call core.PaperBaseline so the figures keep modeling the merge-based baselines")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkOptionsWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkOptionsWrite(pass, n.X)
			}
			return true
		})
	}
}

// checkOptionsWrite reports lhs when it selects a field of a core.Options
// value (directly or through a pointer).
func checkOptionsWrite(pass *Pass, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	t := pass.Pkg.Info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if isCoreOptions(t) {
		pass.Reportf(lhs.Pos(), "write to core.Options.%s in a paper-runner package; core.PaperBaseline is the only source of paper-runner options", sel.Sel.Name)
	}
}

func isCoreOptions(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Options" && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/core"
}
