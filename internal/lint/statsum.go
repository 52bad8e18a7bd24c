package lint

// statsum guards stats-completeness: every struct named Stats that has an
// aggregation method (Add/Merge, exported or not) must reference every
// numeric field — and every nested Stats-typed field — inside that method.
// This is the cmap.Stats.Add bug class (PR 1) made impossible: adding a new
// counter like GallopProbes (PR 2) without extending the merge silently
// drops it from every multi-worker total.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Statsum is the production instance (all packages).
var Statsum = NewStatsum()

// NewStatsum builds a statsum instance.
func NewStatsum() *Analyzer {
	return &Analyzer{
		Name: "statsum",
		Doc:  "every Stats struct's Add/Merge method must aggregate every numeric field",
		Run:  runStatsum,
	}
}

// mergeMethodNames are the method names treated as "the aggregation method".
var mergeMethodNames = []string{"Add", "add", "Merge", "merge"}

func runStatsum(pass *Pass) {
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.Name() != "Stats" {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		method := mergeMethod(named)
		if method == nil {
			continue // summary-only Stats (graph.Stats) or externally aggregated (sim.Stats)
		}
		decl := methodDecl(pass.Pkg, method)
		if decl == nil || decl.Body == nil {
			continue
		}
		missing := missingFields(pass.Pkg, st, decl)
		if len(missing) > 0 {
			pass.Reportf(decl.Pos(), "%s.%s does not aggregate field(s) %s; new counters must be merged or multi-worker totals silently drop them",
				tn.Name(), method.Name(), strings.Join(missing, ", "))
		}
	}
}

func mergeMethod(named *types.Named) *types.Func {
	for _, name := range mergeMethodNames {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
	}
	return nil
}

// methodDecl locates fn's declaration in pkg.
func methodDecl(pkg *Package, fn *types.Func) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn.Name() {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// missingFields returns the names of aggregatable fields of st never
// referenced inside decl's body, sorted by declaration order.
func missingFields(pkg *Package, st *types.Struct, decl *ast.FuncDecl) []string {
	required := map[*types.Var]int{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if aggregatable(f.Type()) {
			required[f] = i
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				delete(required, s.Obj().(*types.Var))
			}
		}
		return true
	})
	var out []string
	for f := range required {
		out = append(out, f.Name())
	}
	sort.Slice(out, func(i, j int) bool {
		return fieldIndex(st, out[i]) < fieldIndex(st, out[j])
	})
	return out
}

func fieldIndex(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return i
		}
	}
	return -1
}

// aggregatable reports whether a field must appear in the merge: numeric
// counters, and nested structs named Stats (sub-aggregates like
// sim.Stats.CMap).
func aggregatable(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsNumeric != 0
	}
	if named, ok := t.(*types.Named); ok {
		_, isStruct := named.Underlying().(*types.Struct)
		return isStruct && named.Obj().Name() == "Stats"
	}
	return false
}
