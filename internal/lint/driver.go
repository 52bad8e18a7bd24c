package lint

// The multichecker driver: run a set of analyzers over a set of target
// packages and collect position-sorted diagnostics.

import (
	"fmt"
	"path/filepath"
	"sort"
)

// DefaultAnalyzers returns the production flexlint suite, in the order the
// diagnostics documentation lists them.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Detlint, Kernelpin, Boundarg, Adjwrite,
		Lockorder, AtomicHygiene, Goroleak,
	}
}

// Run executes the analyzers against the target packages (which must belong
// to prog). Program-wide analyzers run once; their diagnostics are kept only
// when they land in a target package's files, so `flexlint ./internal/...`
// behaves like the go tool's package selection.
func Run(prog *Program, analyzers []*Analyzer, targets []*Package) []Diagnostic {
	var diags []Diagnostic
	targetFiles := map[string]bool{}
	for _, pkg := range targets {
		for _, fn := range pkg.Filenames {
			targetFiles[fn] = true
		}
	}
	for _, a := range analyzers {
		if a.ProgramWide {
			var got []Diagnostic
			a.Run(&Pass{Prog: prog, analyzer: a, diags: &got})
			for _, d := range got {
				if targetFiles[prog.Fset.Position(d.Pos).Filename] {
					diags = append(diags, d)
				}
			}
			continue
		}
		for _, pkg := range targets {
			if !a.applies(pkg.Path) {
				continue
			}
			a.Run(&Pass{Prog: prog, Pkg: pkg, analyzer: a, diags: &diags})
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
