package lint

// goroleak holds the half of the goroutine-leak invariant a static rule holds
// cheaply: at every `go` statement in the module the spawned body is in plain
// sight — a function literal, or a function or method resolved at compile
// time — never a function value or an interface method, whose body neither a
// reviewer nor a test author can find from the spawn site.
//
// That the body then terminates into its spawner (WaitGroup pairing,
// ctx/done-channel receive) is proven at runtime, where it is cheaper and
// covers more: each spawning package (sched, serve, jobs, core) has a
// goroutine-baseline test that counts goroutines, drives the spawner through
// completion and cancellation, and fails unless the count returns. sim has no
// `go` statement for this rule to look at — its PEs are iter.Pull coroutines —
// and keeps its baseline test all the same: a pull coroutine is a goroutine
// to runtime.NumGoroutine until its stop is called.

import (
	"go/ast"
	"go/types"
)

// Goroleak is the production instance: module-wide.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "a go statement spawns a function literal or a statically resolved function, never a function value",
	Run:  runGoroleak,
}

func runGoroleak(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if _, lit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); lit {
				return true
			}
			callee := calleeOf(pass.Pkg, g.Call)
			if callee == nil {
				pass.Reportf(g.Pos(), "go statement spawns a dynamic function value; its join/cancellation path cannot be found from here — spawn a named function or a literal")
			} else if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				pass.Reportf(g.Pos(), "go statement spawns interface method %s; its body is chosen at run time — spawn a literal that calls it", callee.Name())
			}
			return true
		})
	}
}
