package flexminer

import (
	"testing"

	"repro/internal/graph"
)

// TestFacadeEndToEnd drives the public API exactly as the README does.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := NewGraph(5, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {2, 3}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(Patterns.Triangle(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(g, pl, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 2 {
		t.Errorf("triangles = %d, want 2", res.Counts[0])
	}
	sres, err := Simulate(g, pl, DefaultSimConfig().WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Counts[0] != 2 {
		t.Errorf("simulated triangles = %d, want 2", sres.Counts[0])
	}
	if sres.Stats.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
}

func TestFacadeCliqueDAG(t *testing.T) {
	g, err := NewGraph(6, [][2]uint32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := CompileCliqueDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(g.Orient(), pl, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 {
		t.Errorf("4-cliques = %d, want 1", res.Counts[0])
	}
}

func TestFacadeMotifs(t *testing.T) {
	g, err := NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := CompileMotifs(4, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(g, pl, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pl.Patterns {
		want := int64(0)
		if p.Name() == "4-cycle" {
			want = 1
		}
		if res.Counts[i] != want {
			t.Errorf("%s = %d, want %d", p.Name(), res.Counts[i], want)
		}
	}
}

// TestSimCyclesKernelProof is the simulator-side half of the kernel
// invariance contract (the engine-side half lives in internal/core's kernel
// tests): the accelerator's SIU/SDU cycle accounting stays on the paper's
// merge model no matter which CPU kernel policy is in use — including when
// the simulator runs on the very Graph value the CPU engine has just mined
// with its c-map (per-worker state; a Graph holds none).
func TestSimCyclesKernelProof(t *testing.T) {
	g := graph.ChungLu(600, 5400, 2.2, 0x21) // power-law: gallop and c-map scan engage
	pl, err := Compile(Patterns.KClique(4), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig().WithPEs(4)
	before, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []KernelPolicy{KernelAuto, KernelMergeOnly} {
		res, err := Mine(g, pl, MineOptions{Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[0] != before.Counts[0] {
			t.Errorf("kernel=%v: CPU count %d != simulated count %d", kernel, res.Counts[0], before.Counts[0])
		}
		after, err := Simulate(g, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after.Stats.Cycles != before.Stats.Cycles {
			t.Errorf("kernel=%v perturbed simulated cycles: %d, want %d", kernel, after.Stats.Cycles, before.Stats.Cycles)
		}
		if after.Stats.SIUIters != before.Stats.SIUIters || after.Stats.SDUIters != before.Stats.SDUIters {
			t.Errorf("kernel=%v perturbed SIU/SDU iterations: %d/%d, want %d/%d", kernel,
				after.Stats.SIUIters, after.Stats.SDUIters, before.Stats.SIUIters, before.Stats.SDUIters)
		}
	}
}

// TestSimCyclesAuxProof is the aux-graph analog of the kernel proof above: the
// vertex-induced 4-path plan carries an aux directive the default CPU engine
// acts on and the merge-only one does not, yet simulated cycle accounting is
// identical around both runs — the accelerator model never reads the directives
// (DESIGN.md decision 14), so the paper figures cannot be perturbed by the
// pruning layer. The zero-value MineOptions is the default leg: a library
// caller, the CLI and the job service run one configuration
// (cmd/flexminer's TestEngineFlagDefaultsAreTheFacadeDefault holds the CLI to it).
func TestSimCyclesAuxProof(t *testing.T) {
	g := graph.ChungLu(600, 5400, 2.2, 0x21)
	path, err := Patterns.ByName("4-path")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(path, CompileOptions{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig().WithPEs(4)
	before, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []MineOptions{{}, {Kernel: KernelMergeOnly}} {
		res, err := Mine(g, pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[0] != before.Counts[0] {
			t.Errorf("kernel=%v: CPU count %d != simulated count %d", opt.Kernel, res.Counts[0], before.Counts[0])
		}
		if s := res.Stats; opt.Kernel == KernelAuto && (s.AuxBuilt == 0 || s.AuxReused <= s.AuxBuilt) {
			t.Errorf("the zero-value MineOptions built %d aux rows and reused %d; want reuse > build > 0", s.AuxBuilt, s.AuxReused)
		} else if opt.Kernel == KernelMergeOnly && s.AuxBuilt != 0 {
			t.Errorf("merge-only built %d aux rows", s.AuxBuilt)
		}
		after, err := Simulate(g, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after.Stats.Cycles != before.Stats.Cycles {
			t.Errorf("kernel=%v perturbed simulated cycles: %d, want %d", opt.Kernel, after.Stats.Cycles, before.Stats.Cycles)
		}
		if after.Stats.SIUIters != before.Stats.SIUIters || after.Stats.SDUIters != before.Stats.SDUIters {
			t.Errorf("kernel=%v perturbed SIU/SDU iterations: %d/%d, want %d/%d", opt.Kernel,
				after.Stats.SIUIters, after.Stats.SDUIters, before.Stats.SIUIters, before.Stats.SDUIters)
		}
	}
}

func TestFacadePatternsByName(t *testing.T) {
	p, err := Patterns.ByName("diamond")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsIsomorphic(Patterns.Diamond()) {
		t.Error("ByName diamond mismatch")
	}
	if len(Patterns.Motifs(4)) != 6 {
		t.Error("motif catalog")
	}
}
