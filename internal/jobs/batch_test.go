package jobs

// What a batch is: one pattern and its twins. Isomorphic jobs under one
// engine configuration share a run, whether the twin is still queued or
// already running; distinct patterns, and jobs whose options differ, run
// apart.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// submitJSON submits one request body as the HTTP decoder reads it.
func submitJSON(t *testing.T, s *Server, body string) string {
	t.Helper()
	req, pat, err := ParseSubmit([]byte(body))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	id, err := s.Submit(req, pat)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestDistinctPatternsRunApart: tailed-triangle and 4-path, co-queued on one
// graph under one engine configuration, each run alone — width 1, no job
// counted batched — and each returns the Stats of its own pattern mined solo
// with the same options, not those of a merged plan.
func TestDistinctPatternsRunApart(t *testing.T) {
	g := graph.ChungLu(300, 2100, 2.3, 11)
	reg := obs.NewRegistry(nil)
	s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	names := []string{"tailed-triangle", "4-path"}
	var ids []string
	for i, name := range names {
		ids = append(ids, submitNamed(t, s, fmt.Sprint("t", i), "g", name, EngineOptions{Workers: 1}))
	}
	s.Resume()
	for i, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		pat, err := pattern.ByName(names[i])
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Compile(pat, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Mine(g, pl, core.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := s.Result(id)
		if res.BatchWidth != 1 || res.Count != want.Count() || res.Stats != want.Stats {
			t.Errorf("%s: width %d, count %d, stats %+v; want width 1 and the solo run's %d, %+v",
				names[i], res.BatchWidth, res.Count, res.Stats, want.Count(), want.Stats)
		}
	}
	if n, b := batches(s), reg.Get(MetricBatched); n != 2 || b != 0 {
		t.Errorf("%d engine runs, %s = %d; want 2 and 0", n, MetricBatched, b)
	}
}

// TestIsomorphicJobsShareALeg: a twin spelled by another catalog name
// (3-clique for triangle) or as the edges of a relabelling (diamond with its
// degree-3 vertices moved from 0,1 to 2,3) shares the first job's run —
// co-queued with it, or joining it in flight — and both receive the count the
// pattern mines alone.
func TestIsomorphicJobsShareALeg(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 4)
	const relabelledDiamond = `{"vertices":4,"edges":[[2,3],[0,2],[1,2],[0,3],[1,3]]}`
	for _, c := range []struct{ name, first, twin string }{
		{"triangle", `{"name":"triangle"}`, `{"name":"3-clique"}`},
		{"diamond", `{"name":"diamond"}`, relabelledDiamond},
	} {
		want := solo(t, g, c.name)
		for _, inFlight := range []bool{false, true} {
			gate := newGateStore(g, 1)
			s := New(Config{Graphs: map[string]graph.Store{"g": gate}, StartPaused: !inFlight})
			first := submitJSON(t, s, submitBody("A", c.first, 2))
			if inFlight {
				gate.waitFull(t)
			}
			twin := submitJSON(t, s, submitBody("B", c.twin, 2))
			s.Resume()
			gate.open()
			for _, id := range []string{first, twin} {
				st := waitDone(t, s, id)
				res, _ := s.Result(id)
				if st.State != StateDone || res.BatchWidth != 2 || res.Count != want {
					t.Errorf("%s, in flight %v: job %s ended %s (%s) with %+v; want done in width 2 with %d",
						c.name, inFlight, id, st.State, st.Error, res, want)
				}
			}
			if n := batches(s); n != 1 {
				t.Errorf("%s, in flight %v: %d engine runs, want 1", c.name, inFlight, n)
			}
			closeServer(t, s)
		}
	}
}

// TestIncompatibleJobsDoNotBatch: twins whose worker counts differ must run in
// separate batches.
func TestIncompatibleJobsDoNotBatch(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	id1 := submitNamed(t, s, "A", "g", "diamond", EngineOptions{Workers: 1})
	id2 := submitNamed(t, s, "A", "g", "diamond", EngineOptions{Workers: 2})
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

// TestOptionSpellingsShareABatch: twin sharing compares normalized options, so
// two spellings of the default worker count (none, and GOMAXPROCS) must land
// in the same batch.
func TestOptionSpellingsShareABatch(t *testing.T) {
	g := graph.ChungLu(150, 900, 2.3, 6)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	ids := []string{
		submitJSON(t, s, `{"graph":{"name":"g"},"pattern":{"name":"diamond"}}`),
		submitJSON(t, s, fmt.Sprintf(`{"graph":{"name":"g"},"pattern":{"name":"diamond"},"options":{"workers":%d}}`, runtime.GOMAXPROCS(0))),
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
