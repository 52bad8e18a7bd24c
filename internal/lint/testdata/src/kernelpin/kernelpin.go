// Package kernelfix seeds violations for the kernelpin analyzer tests: the
// test instance scopes the analyzer to this package the way production scopes
// it to internal/bench, and the fixture uses the real
// repro/internal/core.Options so type identity is exercised end to end.
package kernelfix

import (
	"repro/internal/core"
	"repro/internal/plan"
)

// Table2 is the clean shape: options come from core.PaperBaseline and are
// passed on untouched.
func Table2() {
	use(core.PaperBaseline(20))
	o := core.PaperBaseline(1)
	threads := o.Threads // reading a field is fine
	use(core.PaperBaseline(threads))
	use2(plan.Options{NoSymmetry: true}) // different Options type: ignored
}

// Fig7 builds its own options, pinned or not.
func Fig7() {
	use(core.Options{Threads: 20, Kernel: core.KernelMergeOnly}) // want `core.Options literal in a paper-runner package`
	use(core.Options{})                                          // want `core.Options literal in a paper-runner package`
}

// BaselineSeconds starts from the baseline and then edits it.
func BaselineSeconds(k core.KernelPolicy) {
	o := core.PaperBaseline(4)
	o.Kernel = k // want `write to core.Options.Kernel in a paper-runner package`
	p := &o
	p.SliceElems = 8 // want `write to core.Options.SliceElems in a paper-runner package`
	(*p).Threads++   // want `write to core.Options.Threads in a paper-runner package`
	var po plan.Options
	po.Induced = true // different Options type: ignored
	use(o)
	use2(po)
}

func use(core.Options)  {}
func use2(plan.Options) {}
