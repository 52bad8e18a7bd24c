package jobs

// Path-based graph resolution: jobs referencing graphs by path under the
// configured root, across the heap / mmap / sharded backends, plus the
// failure path (a bad path fails the batch cleanly) and cache reuse.

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

func writeGraphDir(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g := graph.ChungLu(200, 1200, 2.3, 3)
	dir := t.TempDir()
	if err := graph.SaveBinary(filepath.Join(dir, "g.bin"), g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSharded(filepath.Join(dir, "shards"), g, 2); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

func submitPath(t *testing.T, s *Server, path string, mmap bool) string {
	t.Helper()
	pat, _ := pattern.ByName("triangle")
	id, err := s.Submit(SubmitRequest{
		Tenant:  "A",
		Graph:   GraphRef{Path: path, Mmap: mmap},
		Pattern: PatternRef{Name: "triangle"},
		Options: EngineOptions{Workers: 2, Kernel: "auto"},
	}, pat)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestGraphPathBackends(t *testing.T) {
	dir, g := writeGraphDir(t)
	want := solo(t, g, "triangle")
	s := New(Config{GraphDir: dir})
	defer closeServer(t, s)
	if s.Registry() == nil {
		t.Fatal("Registry() returned nil")
	}

	for _, ref := range []struct {
		path string
		mmap bool
	}{
		{"g.bin", false},
		{"g.bin", true},
		{"shards", false},
	} {
		id := submitPath(t, s, ref.path, ref.mmap)
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("path %q mmap=%v: state %s (%s)", ref.path, ref.mmap, st.State, st.Error)
		}
		res, _ := s.Result(id)
		if res.Count != want {
			t.Fatalf("path %q mmap=%v: count %d, want %d", ref.path, ref.mmap, res.Count, want)
		}
	}
}

// TestGraphPathCacheAndBatching: two co-queued jobs with the same path ref
// resolve to one cached store and batch together.
func TestGraphPathCacheAndBatching(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir, StartPaused: true})
	defer closeServer(t, s)

	pat1, _ := pattern.ByName("diamond")
	pat2, _ := pattern.ByName("tailed-triangle")
	opts := EngineOptions{Workers: 2, Kernel: "auto"}
	id1, err := s.Submit(SubmitRequest{Tenant: "A", Graph: GraphRef{Path: "g.bin"}, Pattern: PatternRef{Name: "diamond"}, Options: opts}, pat1)
	if err != nil {
		t.Fatal(err)
	}
	// The second job spells the same file uncleaned: one graph, one batch.
	id2, err := s.Submit(SubmitRequest{Tenant: "B", Graph: GraphRef{Path: "./g.bin"}, Pattern: PatternRef{Name: "tailed-triangle"}, Options: opts}, pat2)
	if err != nil {
		t.Fatal(err)
	}
	s.Resume()
	for _, id := range []string{id1, id2} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res, _ := s.Result(id)
		if res.BatchWidth != 2 {
			t.Fatalf("job %s: batch width %d, want 2 (same path ref must share a batch)", id, res.BatchWidth)
		}
	}
	s.gmu.Lock()
	cached := len(s.graphs)
	s.gmu.Unlock()
	if cached != 1 {
		t.Fatalf("graph cache holds %d entries, want 1", cached)
	}
}

// TestGraphPathOpenFailureFailsJob: a path that passes submit-time
// confinement but doesn't exist must fail the job at dispatch, cleanly.
func TestGraphPathOpenFailureFailsJob(t *testing.T) {
	dir, _ := writeGraphDir(t)
	reg := obs.NewRegistry(nil)
	s := New(Config{Registry: reg, GraphDir: dir})
	defer closeServer(t, s)

	id := submitPath(t, s, "missing.bin", false)
	st := waitDone(t, s, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatal("failed job carries no error message")
	}
	if res, _ := s.Result(id); res != nil {
		t.Fatalf("failed-before-run job should have no result, got %+v", res)
	}
	if v := reg.Get(MetricFailed); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricFailed, v)
	}
}
