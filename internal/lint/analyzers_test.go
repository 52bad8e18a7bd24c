package lint

import "testing"

// Each analyzer runs against its seeded-violation fixture package; the
// fixture's `// want` comments are the golden expectations. Test instances
// re-scope (or re-root) the analyzers at the fixture packages so the
// production Scope/Roots configuration stays untouched.

func TestDetlint(t *testing.T) {
	prog := testProgram(t)
	a := NewDetlint(DetlintConfig{Scope: []string{fixturePath(prog, "detlint")}})
	runWantTest(t, a, "detlint")
}

func TestKernelpin(t *testing.T) {
	prog := testProgram(t)
	runWantTest(t, NewKernelpin(fixturePath(prog, "kernelpin")), "kernelpin")
}

func TestBoundarg(t *testing.T) {
	runWantTest(t, Boundarg, "boundarg")
}

func TestAdjwrite(t *testing.T) {
	runWantTest(t, Adjwrite, "adjwrite")
}

func TestAtomicHygiene(t *testing.T) {
	runWantTest(t, AtomicHygiene, "atomichygiene")
}

func TestGoroleak(t *testing.T) {
	runWantTest(t, Goroleak, "goroleak")
}

// TestRepoIsClean is the acceptance gate: the production suite must report
// nothing on the repo itself (fixtures excluded). A regression that trips an
// analyzer fails here before it fails in CI.
func TestRepoIsClean(t *testing.T) {
	prog := testProgram(t)
	var targets []*Package
	for _, pkg := range prog.Packages() {
		if pkg.Testdata {
			continue
		}
		targets = append(targets, pkg)
	}
	if len(targets) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range Run(prog, DefaultAnalyzers(), targets) {
		t.Errorf("repo violation: %s", Format(prog, d))
	}
}
