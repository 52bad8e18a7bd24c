package core

// Metamorphic counter invariants backing the observability layer: the obs
// registry exports engine Stats as deterministic artifacts, which is only
// sound if the counters themselves are invariant under thread count and
// kernel policy, and if tracing never perturbs a run. Each test states one
// such invariant and sweeps it over power-law inputs where kernel choice and
// the task-to-worker assignment actually vary.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func metamorphicWorkload(t *testing.T) (*graph.Graph, *plan.Plan) {
	t.Helper()
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, pl
}

// TestMetamorphicWorkerStatsInvariance: with the slice width pinned, the
// whole Stats block — not just the counts — is identical across worker
// counts. This is what licenses exporting Stats counters into golden-tested
// metrics files from parallel runs.
func TestMetamorphicWorkerStatsInvariance(t *testing.T) {
	g, pl := metamorphicWorkload(t)
	var ref *Result
	for _, workers := range []int{1, 4, 16} {
		res, err := Mine(g, pl, Options{Threads: workers, SliceElems: 16})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = &res
			continue
		}
		if !reflect.DeepEqual(res.Counts, ref.Counts) {
			t.Errorf("workers=%d: counts %v, want %v", workers, res.Counts, ref.Counts)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Errorf("workers=%d: stats diverge from 1-worker run:\n got %+v\nwant %+v",
				workers, res.Stats, ref.Stats)
		}
	}
}

// TestMetamorphicKernelCostBound: the adaptive policy must (a) reproduce
// the merge-only counts and candidates exactly — every policy walks the same
// tree — in no more extensions (a closed form counts a level instead of
// extending it: diamond's v2 here) and (b) spend no more total probe work than
// the merge baseline — the adaptive kernels exist to cut the SIU-work proxy,
// never to inflate it.
func TestMetamorphicKernelCostBound(t *testing.T) {
	g, pl := metamorphicWorkload(t)
	base, err := Mine(g, pl, Options{Threads: 4, SliceElems: 16, Kernel: KernelMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.GallopProbes != 0 || base.Stats.BitmapProbes != 0 {
		t.Fatalf("merge-only run used adaptive kernels: %+v", base.Stats)
	}
	for _, k := range []KernelPolicy{KernelAuto} {
		res, err := Mine(g, pl, Options{Threads: 4, SliceElems: 16, Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Counts, base.Counts) {
			t.Errorf("%s: counts %v, want %v", k, res.Counts, base.Counts)
		}
		if res.Stats.Extensions > base.Stats.Extensions || res.Stats.Candidates != base.Stats.Candidates {
			t.Errorf("%s: search tree changed: ext=%d cand=%d, want ext<=%d cand=%d",
				k, res.Stats.Extensions, res.Stats.Candidates,
				base.Stats.Extensions, base.Stats.Candidates)
		}
		work := res.Stats.SetOpIterations + res.Stats.GallopProbes + res.Stats.BitmapProbes
		if work > base.Stats.SetOpIterations {
			t.Errorf("%s: total probe work %d exceeds merge bound %d", k, work, base.Stats.SetOpIterations)
		}
	}
}

// TestMetamorphicTracingIsInert: attaching a tracer must not change counts
// or any Stats counter (the CPU half of the zero-overhead contract; the sim
// half is TestSimCyclesInvariantUnderTracing).
func TestMetamorphicTracingIsInert(t *testing.T) {
	g, pl := metamorphicWorkload(t)
	plain, err := Mine(g, pl, Options{Threads: 4, SliceElems: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.NewVirtualClock(), 1<<12)
	traced, err := Mine(g, pl, Options{Threads: 4, SliceElems: 16, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Counts, plain.Counts) || !reflect.DeepEqual(traced.Stats, plain.Stats) {
		t.Errorf("tracing changed the run:\ntraced %+v %+v\nplain  %+v %+v",
			traced.Counts, traced.Stats, plain.Counts, plain.Stats)
	}
	if len(tr.Events()) == 0 {
		t.Error("tracer attached to a parallel mine recorded nothing")
	}
	cats := tr.Categories()
	if len(cats) < 2 {
		t.Errorf("expected sched + kernel categories, got %v", cats)
	}
}
