package lint

// atomichygiene makes mixed atomic/plain access unrepresentable rather than
// detecting it: module code may not use sync/atomic's function-style API
// (AddInt64(&x.f, 1) and friends) at all. A variable touched that way is a plain
// int64 every other site can read or write without the atomic — a torn read,
// a racy write — and the race detector sees it only when a test happens to
// interleave. The typed atomics (atomic.Int64, atomic.Bool, atomic.Pointer)
// keep their state unexported, so every access goes through a method and
// there is nothing left to check. Locals are not exempt: a closure capture
// shares them just the same.

import (
	"go/ast"
	"go/types"
)

// AtomicHygiene is the production instance: module-wide, annotation-free.
var AtomicHygiene = &Analyzer{
	Name: "atomichygiene",
	Doc:  "no function-style sync/atomic calls; typed atomics make a mixed atomic/plain access unrepresentable",
	Run:  runAtomicHygiene,
}

func runAtomicHygiene(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "function-style atomic.%s leaves its operand open to plain access elsewhere; declare the variable as a typed atomic (atomic.Int64, atomic.Bool, ...) and use its methods", fn.Name())
			}
			return true
		})
	}
}
