package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// BenchmarkSimulate is the host cost of the cycle model where the CLI and
// cmd/experiments run it — at the host's GOMAXPROCS; benchmark/'s `sim`
// workload pins GOMAXPROCS 1. One op is that workload's pass, built
// in-package: SL-4cycle, 3-MC and 4-CL at 20 PEs on its RMAT graph (the
// workload's shape under its default -seed 1, which is XORed into the shape's
// 0xA5). The metric is host nanoseconds per simulated cycle; the cycles
// themselves are model time and repeat exactly.
func BenchmarkSimulate(b *testing.B) {
	g := graph.RMAT(10, 6500, 0.57, 0.19, 0.19, 1^0xA5)
	fourCycle, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	motifs3, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	clique4, err := plan.CompileCliqueDAG(4)
	if err != nil {
		b.Fatal(err)
	}
	legs := []struct {
		pl *plan.Plan
		g  *graph.Graph
	}{{fourCycle, g}, {motifs3, g}, {clique4, g.Orient()}}
	cfg := DefaultConfig().WithPEs(20)
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, l := range legs {
			res, err := Simulate(l.g, l.pl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Stats.Cycles
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "host-ns/cycle")
}
