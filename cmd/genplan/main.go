// Command genplan runs the FlexMiner compiler standalone: it compiles the
// named pattern(s) and prints the execution-plan IR in the paper's
// Listing 1/2 format, including the storage-management hints.
//
// Usage:
//
//	genplan 4-cycle
//	genplan -induced diamond tailed-triangle     # merged multi-pattern tree
//	genplan -motifs 4                            # all 4-motifs, vertex-induced
//	genplan -dag 5-clique                        # orientation-optimized k-CL
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/pattern"
	"repro/internal/plan"
)

func main() {
	var (
		induced    = flag.Bool("induced", false, "vertex-induced matching semantics")
		motifs     = flag.Int("motifs", 0, "compile the k-motif-counting plan instead of named patterns")
		dag        = flag.Bool("dag", false, "compile a clique plan for degree-oriented DAG input")
		noSymmetry = flag.Bool("no-symmetry", false, "disable symmetry breaking (AutoMine mode)")
	)
	flag.Parse()
	if err := run(flag.Args(), *induced, *motifs, *dag, *noSymmetry); err != nil {
		fmt.Fprintln(os.Stderr, "genplan:", err)
		os.Exit(1)
	}
}

func run(names []string, induced bool, motifs int, dag, noSymmetry bool) error {
	opt := plan.Options{Induced: induced, NoSymmetry: noSymmetry}
	if motifs > 0 {
		pl, err := plan.CompileMotifs(motifs, opt)
		if err != nil {
			return err
		}
		fmt.Println(pl)
		return nil
	}
	if len(names) == 0 {
		return fmt.Errorf("no patterns given (try: genplan 4-cycle)")
	}
	if dag {
		if len(names) != 1 {
			return fmt.Errorf("-dag takes exactly one k-clique pattern")
		}
		p, err := pattern.ByName(names[0])
		if err != nil || !p.IsClique() {
			return fmt.Errorf("-dag wants a k-clique pattern, got %q", names[0])
		}
		pl, err := plan.CompileCliqueDAG(p.Size())
		if err != nil {
			return err
		}
		fmt.Println(pl)
		return nil
	}
	ps := make([]*pattern.Pattern, len(names))
	for i, name := range names {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		ps[i] = p
	}
	var pl *plan.Plan
	var err error
	if len(ps) == 1 {
		pl, err = plan.Compile(ps[0], opt)
	} else {
		pl, err = plan.CompileMulti(ps, opt)
	}
	if err != nil {
		return err
	}
	fmt.Println(pl)
	return nil
}
