package plan

// The workload grammar: the one place an application name — the four
// applications of the paper's §II-A as the CLIs, the experiment runners and
// EXPERIMENTS.md spell them — becomes a plan.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pattern"
)

// AppForms is the grammar CompileApp accepts, in the words its error and the
// flexminer CLI's -app help print.
var AppForms = fmt.Sprintf("TC, k-CL (2 ≤ k ≤ %d), 3-MC, 4-MC, or SL-<pattern name> (e.g. SL-4cycle, SL-diamond, SL-house)",
	pattern.MaxVertices)

// CompileApp compiles the plan of a named application:
//
//   - "TC" and "k-CL" mine cliques on the degree-oriented DAG
//     (CompileCliqueDAG: the plan has RequiresDAG set and the caller orients
//     its input). Orientation *is* symmetry breaking, so under opt.NoSymmetry
//     — the AutoMine baseline — they compile the generic symmetric-graph
//     clique plan instead;
//   - "3-MC" and "4-MC" count vertex-induced motifs (CompileMotifs);
//   - "SL-<name>" lists the catalog pattern pattern.ByName resolves name to;
//     "SL-4cycle" is the paper's spelling of "SL-4-cycle".
//
// Anything else — trailing text, k out of range, an unknown pattern — is an
// error naming the accepted forms.
func CompileApp(app string, opt Options) (*Plan, error) {
	var clique *pattern.Pattern
	switch {
	case app == "TC":
		clique = pattern.Triangle()
	case strings.HasSuffix(app, "-CL"):
		num := strings.TrimSuffix(app, "-CL")
		// The Itoa round trip rejects "04-CL" and "+4-CL" along with "4x-CL".
		if k, err := strconv.Atoi(num); err == nil && strconv.Itoa(k) == num && k >= 2 && k <= pattern.MaxVertices {
			clique = pattern.KClique(k)
		}
	case app == "3-MC":
		return CompileMotifs(3, opt)
	case app == "4-MC":
		return CompileMotifs(4, opt)
	case strings.HasPrefix(app, "SL-"):
		name := strings.TrimPrefix(app, "SL-")
		if name == "4cycle" {
			name = "4-cycle"
		}
		if p, err := pattern.ByName(name); err == nil {
			return Compile(p, opt)
		}
	}
	switch {
	case clique == nil:
		return nil, fmt.Errorf("plan: unknown application %q; want %s", app, AppForms)
	case opt.NoSymmetry:
		return Compile(clique, opt)
	}
	return CompileCliqueDAG(clique.Size())
}
