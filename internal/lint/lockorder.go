package lint

// lockorder is the deadlock analyzer: it builds a lock-acquisition order graph
// over the packages on the mining path (the one mutex in scope today is
// sched.deque.mu, the work-stealing deques') and reports every edge that lies
// on a cycle — two call paths acquiring the same mutexes in opposite orders can
// deadlock under contention, which no per-function check or runtime tool
// short of a lucky -race interleaving can see.
//
// A mutex *identity* is a package-level sync.Mutex/RWMutex variable
// ("sched.globalMu") or a struct field ("sched.deque.mu") — all instances of
// a field share one identity, which is exactly the abstraction that makes the
// shard-local steal sweep analyzable: every per-worker deque is "deque.mu",
// and the sweep is safe because stealTail releases it (via defer, at return)
// before push reacquires it.
//
// The analysis is a callee-summary fixpoint:
//
//  1. each function (and each function literal, as an anonymous unit) is
//     walked in source order tracking the held set: Lock/RLock acquires, a
//     non-deferred Unlock releases in place, a deferred Unlock holds for the
//     body's remainder but releases at return (so it never enters the
//     function's holds-at-return summary);
//  2. holds-at-return summaries are iterated to a fixpoint and injected at
//     callsites, so split lock/unlock helpers still produce edges in their
//     callers;
//  3. acquires-anywhere summaries are closed transitively over static calls,
//     and every callsite contributes (held lock) → (callee-acquired lock)
//     edges.
//
// `go` statements are excluded (a goroutine's acquisitions are concurrent
// with, not nested under, the spawner's held set — goroleak owns that class),
// as are calls through function values (dynamic). Local mutex variables have
// no cross-function identity and are ignored. The walk linearizes branches,
// and a callee that releases its caller's lock is not modeled; both are
// deliberate approximations kept sound for the repo's lock shapes by the
// defer-only-Unlock discipline, which lockorder enforces itself: every
// non-deferred Unlock/RUnlock in scope is reported (it leaks the lock on a
// panic or an early return added between Lock and Unlock). Copied locks are
// `go vet`'s copylocks check, a required CI step.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockorderConfig scopes the analyzer: both the functions walked and the
// mutex identities tracked must live in a matching package (exact or suffix
// import-path match, like Analyzer.Scope).
type LockorderConfig struct {
	Scope []string
}

// Lockorder is the production instance: the packages on the mining path.
// Only sched declares a mutex today (sched.deque.mu); graph, serve and core
// are in scope so one added there is covered from its first commit. (jobs and obs hold locks
// with non-deferred Unlocks; converting them is a ROADMAP item.)
var Lockorder = NewLockorder(LockorderConfig{Scope: []string{
	"repro/internal/graph",
	"repro/internal/sched",
	"repro/internal/serve",
	"repro/internal/core",
}})

// NewLockorder builds a lockorder instance (tests re-scope it at fixture
// packages).
func NewLockorder(cfg LockorderConfig) *Analyzer {
	return &Analyzer{
		Name:        "lockorder",
		Doc:         "lock-acquisition order graph over graph/sched/serve/core: a cycle means two paths can deadlock; Unlock only via defer",
		ProgramWide: true,
		Run:         func(pass *Pass) { runLockorder(pass, cfg) },
	}
}

// loCall is one static callsite with the lock set held when it executes.
type loCall struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

// loEdge is one "to acquired while from held" observation.
type loEdge struct {
	from, to string
	pos      token.Pos
}

// loUnlock is one non-deferred Unlock/RUnlock on an identified mutex.
type loUnlock struct {
	pos  token.Pos
	name string
	id   string
}

// loResult is one unit's walk summary.
type loResult struct {
	acquires      map[string]bool
	holdsAtReturn map[string]bool
	calls         []loCall
	edges         []loEdge
	unlocks       []loUnlock
}

// loUnit is one analyzed body: a declared function (fn set) or a function
// literal (fn nil — goroutine bodies and callbacks still produce edges, but
// their summaries are unreachable through static calls).
type loUnit struct {
	fn   *types.Func
	pkg  *Package
	body *ast.BlockStmt
}

func runLockorder(pass *Pass, cfg LockorderConfig) {
	bodies := indexFuncs(pass.Prog)

	var units []loUnit
	for fn, fb := range bodies {
		if !inScope(cfg.Scope, fb.pkg.Path) {
			continue
		}
		units = append(units, loUnit{fn: fn, pkg: fb.pkg, body: fb.decl.Body})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].body.Pos() < units[j].body.Pos() })
	var lits []loUnit
	for _, u := range units {
		pkg := u.pkg
		ast.Inspect(u.body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lits = append(lits, loUnit{pkg: pkg, body: lit.Body})
			}
			return true
		})
	}
	units = append(units, lits...)

	// Phase 1+2: walk every unit, iterating holds-at-return summaries to a
	// fixpoint (Gauss–Seidel; the iteration cap is a safety net, repo shapes
	// converge in two rounds).
	holdsRet := map[*types.Func]map[string]bool{}
	results := make([]*loResult, len(units))
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, u := range units {
			r := loWalk(u.pkg, u.body, cfg.Scope, bodies, holdsRet)
			results[i] = r
			if u.fn != nil && !sameStringSet(holdsRet[u.fn], r.holdsAtReturn) {
				holdsRet[u.fn] = r.holdsAtReturn
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 3: close acquires-anywhere over static calls.
	acqAll := map[*types.Func]map[string]bool{}
	for i, u := range units {
		if u.fn != nil {
			acqAll[u.fn] = copyStringSet(results[i].acquires)
		}
	}
	for changed := true; changed; {
		changed = false
		for i, u := range units {
			if u.fn == nil {
				continue
			}
			for _, c := range results[i].calls {
				for id := range acqAll[c.callee] {
					if !acqAll[u.fn][id] {
						acqAll[u.fn][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge set: direct nested acquisitions plus held × callee-acquires at
	// every callsite, deduped to the earliest source position per pair.
	edgePos := map[[2]string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		k := [2]string{from, to}
		if p, ok := edgePos[k]; !ok || pos < p {
			edgePos[k] = pos
		}
	}
	for i := range units {
		for _, e := range results[i].edges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, c := range results[i].calls {
			for _, h := range c.held {
				for id := range acqAll[c.callee] {
					addEdge(h, id, c.pos)
				}
			}
		}
	}

	adj := map[string][]string{}
	for k := range edgePos {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	// An edge is on a cycle iff its head reaches back to its tail.
	cyclic := func(from, to string) bool {
		if from == to {
			return true
		}
		seen := map[string]bool{}
		stack := []string{to}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == from {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	keys := make([][2]string, 0, len(edgePos))
	for k := range edgePos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edgePos[keys[i]] < edgePos[keys[j]] })
	for _, k := range keys {
		if !cyclic(k[0], k[1]) {
			continue
		}
		if k[0] == k[1] {
			pass.Reportf(edgePos[k], "acquiring %s while an instance of it is already held (recursive or nested acquisition); self-deadlock is possible",
				displayLockID(k[1]))
		} else {
			pass.Reportf(edgePos[k], "acquiring %s while holding %s creates a lock-order cycle; another path acquires them in the opposite order and can deadlock",
				displayLockID(k[1]), displayLockID(k[0]))
		}
	}

	for i := range units {
		for _, ul := range results[i].unlocks {
			pass.Reportf(ul.pos,
				"%s of %s outside defer; lockorder treats the lock as released here, but a panic in the critical section leaks it",
				ul.name, displayLockID(ul.id))
		}
	}
}

// loWalk computes one unit's summary: a source-order scan of the body
// tracking the held set, recording acquisition edges, callsite snapshots and
// non-deferred unlocks. holdsRet carries the previous fixpoint iteration's
// callee summaries, injected after each callsite.
func loWalk(pkg *Package, body *ast.BlockStmt, scope []string, bodies map[*types.Func]funcBody, holdsRet map[*types.Func]map[string]bool) *loResult {
	res := &loResult{acquires: map[string]bool{}, holdsAtReturn: map[string]bool{}}
	deferCalls := map[*ast.CallExpr]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			deferCalls[s.Call] = true
		case *ast.GoStmt:
			goCalls[s.Call] = true
		}
		return true
	})

	var held []string
	deferredRelease := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own unit
		case *ast.CallExpr:
			if goCalls[n] {
				return true // concurrent with the spawner, not nested under its locks
			}
			callee := calleeOf(pkg, n)
			if callee == nil {
				return true
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == "sync" {
				pkgPath, id, ok := lockIdentOf(pkg, n)
				if !ok || !inScope(scope, pkgPath) {
					return true
				}
				switch callee.Name() {
				case "Lock", "RLock":
					for _, h := range held {
						res.edges = append(res.edges, loEdge{from: h, to: id, pos: n.Pos()})
					}
					held = append(held, id)
					res.acquires[id] = true
				case "Unlock", "RUnlock":
					if deferCalls[n] {
						deferredRelease[id] = true
					} else {
						res.unlocks = append(res.unlocks, loUnlock{pos: n.Pos(), name: callee.Name(), id: id})
						held = removeLastString(held, id)
					}
				}
				return true
			}
			if _, declared := bodies[callee]; declared {
				var snap []string
				if !deferCalls[n] {
					// Deferred calls run at return, after the deferred
					// unlocks; approximate their held set as empty.
					snap = append([]string(nil), held...)
				}
				res.calls = append(res.calls, loCall{callee: callee, held: snap, pos: n.Pos()})
				for id := range holdsRet[callee] {
					held = append(held, id)
				}
			}
		}
		return true
	})
	for _, h := range held {
		if !deferredRelease[h] {
			res.holdsAtReturn[h] = true
		}
	}
	return res
}

// lockIdentOf resolves the mutex identity a sync lock-op call operates on,
// along with its defining package path. call.Fun is expected to be
// <mutex-expr>.Lock (and friends).
func lockIdentOf(pkg *Package, call *ast.CallExpr) (pkgPath, id string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return mutexIdentity(pkg, sel.X)
}

// mutexIdentity names a mutex expression: "pkg.Type.field" for struct fields
// (every instance of the field is one identity), "pkg.var" for package-level
// mutexes, and the embedded field's type name for promoted Lock calls. Local
// mutex variables have no cross-function identity.
func mutexIdentity(pkg *Package, e ast.Expr) (pkgPath, id string, ok bool) {
	e = ast.Unparen(e)
	if tv, found := pkg.Info.Types[e]; found && !isSyncLockType(tv.Type) {
		if named, fname, has := embeddedLockOf(tv.Type); has {
			obj := named.Obj()
			if obj.Pkg() == nil {
				return "", "", false
			}
			return obj.Pkg().Path(), obj.Pkg().Path() + "." + obj.Name() + "." + fname, true
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		v, isVar := pkg.Info.Uses[x].(*types.Var)
		if !isVar || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "", "", false
		}
		return v.Pkg().Path(), v.Pkg().Path() + "." + v.Name(), true
	case *ast.SelectorExpr:
		v, isVar := pkg.Info.Uses[x.Sel].(*types.Var)
		if !isVar || !v.IsField() {
			return "", "", false
		}
		named := namedTypeOf(pkg, x.X)
		if named == nil || named.Obj().Pkg() == nil {
			return "", "", false
		}
		obj := named.Obj()
		return obj.Pkg().Path(), obj.Pkg().Path() + "." + obj.Name() + "." + v.Name(), true
	}
	return "", "", false
}

// isSyncLockType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncLockType(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// embeddedLockOf finds the embedded sync lock field of a named struct type
// (the promoted-method case: `t.Lock()` where t embeds sync.Mutex).
func embeddedLockOf(t types.Type) (*types.Named, string, bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	st, isStruct := named.Underlying().(*types.Struct)
	if !isStruct {
		return nil, "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isSyncLockType(f.Type()) {
			return named, f.Name(), true
		}
	}
	return nil, "", false
}

// namedTypeOf resolves the named type of an expression, behind pointers.
func namedTypeOf(pkg *Package, e ast.Expr) *types.Named {
	tv, found := pkg.Info.Types[e]
	if !found {
		return nil
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// displayLockID strips the import-path directory from a lock identity for
// reporting: "repro/internal/sched.deque.mu" → "sched.deque.mu".
func displayLockID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func sameStringSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func copyStringSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func removeLastString(s []string, v string) []string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}
