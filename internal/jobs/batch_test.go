package jobs

// The work-sharing acceptance criteria: batching must PROVABLY share work,
// both statically (the merged plan is smaller than the two individual plans
// combined) and dynamically (the engine emits fewer candidates under
// batching than the sum of the individual runs).

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func countNodes(n *plan.Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// TestMergedPlanSmallerThanSum: the merged dependency tree for the paper's
// Listing 2 pair (diamond + tailed-triangle) must have strictly fewer ops
// than the two individual plans combined — the shared v0,v1,v2 prefix is
// materialized once.
func TestMergedPlanSmallerThanSum(t *testing.T) {
	diamond, tailed := pattern.Diamond(), pattern.TailedTriangle()
	opt := plan.Options{}
	plD, err := plan.Compile(diamond, opt)
	if err != nil {
		t.Fatal(err)
	}
	plT, err := plan.Compile(tailed, opt)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := plan.CompileMulti([]*pattern.Pattern{diamond, tailed}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sum := countNodes(plD.Root) + countNodes(plT.Root)
	got := countNodes(merged.Root)
	if got >= sum {
		t.Fatalf("merged plan has %d ops, individual plans total %d — no sharing", got, sum)
	}
	t.Logf("merged plan: %d ops vs %d individual (saved %d)", got, sum, sum-got)
}

// TestBatchedRunSharesWork: a batched diamond + tailed-triangle run must
// emit strictly fewer candidates (the work proxy every kernel policy shares)
// than the same two jobs mined individually, while producing identical
// counts. One worker, the engine's default kernels, as a job runs.
func TestBatchedRunSharesWork(t *testing.T) {
	g := graph.ChungLu(300, 2100, 2.3, 11)
	mineOne := func(name string) (int64, core.Stats) {
		pat, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(pat, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(g, pl, core.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Mine()
		return res.Counts[0], res.Stats
	}
	countD, statsD := mineOne("diamond")
	countT, statsT := mineOne("tailed-triangle")

	reg := obs.NewRegistry(nil)
	s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	opts := EngineOptions{Workers: 1}
	idD := submitNamed(t, s, "A", "g", "diamond", opts)
	idT := submitNamed(t, s, "B", "g", "tailed-triangle", opts)
	s.Resume()

	for _, id := range []string{idD, idT} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	resD, _ := s.Result(idD)
	resT, _ := s.Result(idT)
	if resD.BatchWidth != 2 || resT.BatchWidth != 2 {
		t.Fatalf("batch widths %d/%d, want 2/2 — batching did not engage", resD.BatchWidth, resT.BatchWidth)
	}
	if resD.Count != countD || resT.Count != countT {
		t.Fatalf("batched counts (%d, %d) != individual counts (%d, %d)",
			resD.Count, resT.Count, countD, countT)
	}
	// Both jobs carry the same whole-batch stats document.
	batched := resD.Stats.Candidates
	individual := statsD.Candidates + statsT.Candidates
	if batched >= individual {
		t.Fatalf("batched run: %d candidates, individual runs total %d — batching shared no work",
			batched, individual)
	}
	t.Logf("candidates: batched %d vs individual %d (saved %.1f%%)",
		batched, individual, 100*float64(individual-batched)/float64(individual))

	if v := reg.Get(MetricBatched); v != 2 {
		t.Fatalf("%s = %d, want 2", MetricBatched, v)
	}
	if v := reg.Get(MetricBatchWidth); v != 2 {
		t.Fatalf("%s = %d, want 2", MetricBatchWidth, v)
	}
}

// TestIsomorphicJobsShareALeg: two tenants submitting isomorphic patterns
// (triangle and 3-clique) batch onto ONE plan leg — the plan compiles a
// single chain and both jobs receive the same count.
func TestIsomorphicJobsShareALeg(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 4)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	opts := EngineOptions{Workers: 2}
	id1 := submitNamed(t, s, "A", "g", "triangle", opts)
	id2 := submitNamed(t, s, "B", "g", "3-clique", opts)
	s.Resume()
	res := make([]*Result, 2)
	for i, id := range []string{id1, id2} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res[i], _ = s.Result(id)
	}
	if res[0].BatchWidth != 2 || res[1].BatchWidth != 2 {
		t.Fatalf("batch widths %d/%d, want 2/2", res[0].BatchWidth, res[1].BatchWidth)
	}
	if len(res[0].BatchPatterns) != 1 {
		t.Fatalf("isomorphic jobs used %d plan legs, want 1 (shared)", len(res[0].BatchPatterns))
	}
	if res[0].Count != res[1].Count || res[0].Count <= 0 {
		t.Fatalf("isomorphic jobs disagree: %d vs %d", res[0].Count, res[1].Count)
	}
}

// TestIncompatibleJobsDoNotBatch: different engine options (worker counts)
// must keep same-graph jobs in separate batches.
func TestIncompatibleJobsDoNotBatch(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	id1 := submitNamed(t, s, "A", "g", "diamond", EngineOptions{Workers: 1})
	id2 := submitNamed(t, s, "A", "g", "tailed-triangle", EngineOptions{Workers: 2})
	s.Resume()
	for _, id := range []string{id1, id2} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res, _ := s.Result(id)
		if res.BatchWidth != 1 {
			t.Fatalf("job %s batch width %d, want 1 (options differ)", id, res.BatchWidth)
		}
	}
}

// TestOptionSpellingsShareABatch: batch compatibility compares normalized
// options, so two spellings of the default worker count (none, and
// GOMAXPROCS) must land in the same batch.
func TestOptionSpellingsShareABatch(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	var ids []string
	for _, body := range []string{
		`{"graph":{"name":"g"},"pattern":{"name":"diamond"}}`,
		fmt.Sprintf(`{"graph":{"name":"g"},"pattern":{"name":"tailed-triangle"},"options":{"workers":%d}}`, runtime.GOMAXPROCS(0)),
	} {
		req, pat, err := ParseSubmit([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(req, pat)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Resume()
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res, _ := s.Result(id)
		if res.BatchWidth != 2 {
			t.Fatalf("job %s batch width %d, want 2 (the options mean the same engine)", id, res.BatchWidth)
		}
	}
}

// TestBatchingDisabledByMaxBatchOne: a batch cap of 1 (the seam tests use to
// separate fairness from batching) must dispatch co-queued compatible jobs
// separately.
func TestBatchingDisabledByMaxBatchOne(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	setBatchCap(s, 1)
	defer closeServer(t, s)

	id1 := submitNamed(t, s, "A", "g", "diamond", EngineOptions{Workers: 2})
	id2 := submitNamed(t, s, "A", "g", "tailed-triangle", EngineOptions{Workers: 2})
	s.Resume()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range []string{id1, id2} {
		if err := s.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		res, _ := s.Result(id)
		if res == nil || res.BatchWidth != 1 {
			t.Fatalf("job %s: %+v, want unbatched result", id, res)
		}
	}
}
