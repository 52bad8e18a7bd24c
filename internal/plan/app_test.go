package plan

import (
	"strings"
	"testing"

	"repro/internal/pattern"
)

// TestCompileApp pins the workload grammar: every accepted spelling compiles
// to exactly the plan the direct compiler call produces, clique apps require
// the oriented DAG unless NoSymmetry asks for the AutoMine variant, and
// everything else is an error naming the accepted forms.
func TestCompileApp(t *testing.T) {
	must := func(pl *Plan, err error) *Plan {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	sym, noSym := Options{}, Options{NoSymmetry: true}
	for _, c := range []struct {
		app  string
		opt  Options
		want *Plan
	}{
		{"TC", sym, must(CompileCliqueDAG(3))},
		{"2-CL", sym, must(CompileCliqueDAG(2))},
		{"4-CL", sym, must(CompileCliqueDAG(4))},
		{"5-CL", sym, must(CompileCliqueDAG(5))},
		{"9-CL", sym, must(CompileCliqueDAG(9))},
		{"16-CL", sym, must(CompileCliqueDAG(pattern.MaxVertices))},
		{"3-MC", sym, must(CompileMotifs(3, sym))},
		{"4-MC", sym, must(CompileMotifs(4, sym))},
		{"SL-4cycle", sym, must(Compile(pattern.FourCycle(), sym))},
		{"SL-4-cycle", sym, must(Compile(pattern.FourCycle(), sym))},
		{"SL-diamond", sym, must(Compile(pattern.Diamond(), sym))},
		{"SL-house", sym, must(Compile(pattern.House(), sym))},
		{"SL-tailed-triangle", sym, must(Compile(pattern.TailedTriangle(), sym))},
		{"SL-5-path", sym, must(Compile(pattern.KPath(5), sym))},
		{"SL-diamond", Options{Induced: true}, must(Compile(pattern.Diamond(), Options{Induced: true}))},
		// The AutoMine variants Table II runs: cliques fall back to the
		// symmetric-graph plan, everything else only loses its symmetry order.
		{"TC", noSym, must(Compile(pattern.Triangle(), noSym))},
		{"4-CL", noSym, must(Compile(pattern.KClique(4), noSym))},
		{"5-CL", noSym, must(Compile(pattern.KClique(5), noSym))},
		{"SL-4cycle", noSym, must(Compile(pattern.FourCycle(), noSym))},
		{"SL-diamond", noSym, must(Compile(pattern.Diamond(), noSym))},
		{"3-MC", noSym, must(CompileMulti(pattern.Motifs(3), Options{NoSymmetry: true, Induced: true}))},
	} {
		pl, err := CompileApp(c.app, c.opt)
		if err != nil {
			t.Errorf("CompileApp(%q, %+v): %v", c.app, c.opt, err)
			continue
		}
		if got, want := pl.String(), c.want.String(); got != want {
			t.Errorf("CompileApp(%q, %+v) drifted from the direct compile:\n--- got ---\n%s\n--- want ---\n%s", c.app, c.opt, got, want)
		}
		isCliqueApp := c.app == "TC" || strings.HasSuffix(c.app, "-CL")
		if want := isCliqueApp && !c.opt.NoSymmetry; pl.RequiresDAG != want {
			t.Errorf("CompileApp(%q, %+v).RequiresDAG = %v, want %v", c.app, c.opt, pl.RequiresDAG, want)
		}
	}
	for _, bad := range []string{
		"", "TCx", "tc", "4-CLfoo", "x4-CL", "04-CL", "+4-CL", "0-CL", "1-CL", "17-CL", "-CL", "4-cl",
		"2-MC", "5-MC", "7-MC", "3-MCx", "SL-", "SL-nope", "SL-4cyclefoo", "SL-4-cycle junk", "sl-diamond", "diamond",
	} {
		for _, opt := range []Options{sym, noSym} {
			pl, err := CompileApp(bad, opt)
			if err == nil {
				t.Errorf("CompileApp(%q, %+v) accepted: %s", bad, opt, pl.Patterns[0].Name())
			} else if !strings.Contains(err.Error(), AppForms) {
				t.Errorf("CompileApp(%q) error does not list the accepted forms: %v", bad, err)
			}
		}
	}
}
