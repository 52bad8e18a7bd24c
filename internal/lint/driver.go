package lint

// The multichecker driver: run a set of analyzers over a set of target
// packages and collect position-sorted diagnostics.

import (
	"fmt"
	"path/filepath"
	"sort"
)

// DefaultAnalyzers returns the production suite, in the order the
// diagnostics documentation lists them.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Detlint, Kernelpin, Boundarg, Adjwrite, AtomicHygiene, Goroleak,
	}
}

// Run executes the analyzers against the target packages (which must belong
// to prog), each analyzer once per target package its scope covers.
func Run(prog *Program, analyzers []*Analyzer, targets []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range targets {
			if !a.applies(pkg.Path) {
				continue
			}
			a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// Format renders one diagnostic as "path:line:col: analyzer: message", with
// the path relative to the module root when possible.
func Format(prog *Program, d Diagnostic) string {
	pos := prog.Fset.Position(d.Pos)
	name := pos.Filename
	if rel, err := filepath.Rel(prog.Root, name); err == nil && !filepath.IsAbs(rel) {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", name, pos.Line, pos.Column, d.Analyzer, d.Message)
}
