package jobs

// Path-based graph resolution: jobs referencing graphs by path under the
// configured root, across the heap / mmap / sharded backends, plus the
// failure path (a bad path fails the batch cleanly) and cache reuse.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		Options: EngineOptions{Workers: 2},
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

// TestGraphPathCacheAndBatching: two co-queued twins with the same path ref
// resolve to one cached store and batch together.
func TestGraphPathCacheAndBatching(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir, StartPaused: true})
	defer closeServer(t, s)

	pat, _ := pattern.ByName("diamond")
	opts := EngineOptions{Workers: 2}
	id1, err := s.Submit(SubmitRequest{Tenant: "A", Graph: GraphRef{Path: "g.bin"}, Pattern: PatternRef{Name: "diamond"}, Options: opts}, pat)
	if err != nil {
		t.Fatal(err)
	}
	// The second job spells the same file uncleaned: one graph, one batch.
	id2, err := s.Submit(SubmitRequest{Tenant: "B", Graph: GraphRef{Path: "./g.bin"}, Pattern: PatternRef{Name: "diamond"}, Options: opts}, pat)
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

// setOpen replaces s's path-graph opener, so that a test can hold, count or fail
// an open; like setThreads, it keeps a test independent of the host.
func setOpen(s *Server, open func(path string, mmap bool) (graph.Store, func() error, error)) {
	s.gmu.Lock()
	s.open = open
	s.gmu.Unlock()
}

// TestGraphOpenDoesNotBlockCachedGraph: while one key's open is held, a request
// for another key that is already cached returns at once; the held one completes
// once released.
func TestGraphOpenDoesNotBlockCachedGraph(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir})
	defer closeServer(t, s)
	entered, hold := make(chan struct{}), make(chan struct{})
	setOpen(s, func(path string, mmap bool) (graph.Store, func() error, error) {
		if filepath.Base(path) == "shards" {
			close(entered)
			<-hold
		}
		return graph.Open(path, mmap)
	})
	if _, err := s.graphFor(GraphRef{Path: "g.bin"}); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := s.graphFor(GraphRef{Path: "shards"})
		held <- err
	}()
	<-entered
	cached := make(chan error, 1)
	go func() {
		_, err := s.graphFor(GraphRef{Path: "g.bin"})
		cached <- err
	}()
	select {
	case err := <-cached:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(hold) // let the held open finish, so that Close can run
		t.Fatal("a cached graph waited behind another key's open")
	}
	close(hold)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// blockedInGraphFor waits until n goroutines are parked on a channel inside
// graphFor: the one running a held open, and the requests waiting for it.
func blockedInGraphFor(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "jobs.(*Server).graphFor") {
				got++
			}
		}
		if got >= n {
			return
		}
	}
	t.Fatalf("fewer than %d goroutines reached graphFor's wait", n)
}

// TestGraphOpenOnce: concurrent requests for one key share one open — the
// requests that arrive while it runs wait for it — and so get one store, or
// every one of them the open's error, which is not cached: the next request
// opens again.
func TestGraphOpenOnce(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir})
	defer closeServer(t, s)
	boom := errors.New("transient")
	for _, fail := range []bool{true, false} {
		var opens atomic.Int32
		hold := make(chan struct{})
		setOpen(s, func(path string, mmap bool) (graph.Store, func() error, error) {
			opens.Add(1)
			<-hold
			if fail {
				return nil, nil, boom
			}
			return graph.Open(path, mmap)
		})
		const n = 4
		type got struct {
			st  graph.Store
			err error
		}
		gots := make(chan got, n)
		for range n {
			go func() {
				st, err := s.graphFor(GraphRef{Path: "./g.bin"})
				gots <- got{st, err}
			}()
		}
		blockedInGraphFor(t, n)
		close(hold)
		first := <-gots
		for range n - 1 {
			if g := <-gots; g != first {
				t.Fatalf("fail=%v: requests for one key got %v and %v", fail, first, g)
			}
		}
		if opens.Load() != 1 || fail != errors.Is(first.err, boom) || !fail && first.st == nil {
			t.Fatalf("fail=%v: %d opens for %d requests, each got %v; want one open, its outcome for all", fail, opens.Load(), n, first)
		}
	}
}

// TestGraphOpenFailureRetried: a failed open is not cached — the next request
// opens again, and that store is cached.
func TestGraphOpenFailureRetried(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir})
	defer closeServer(t, s)
	var opens atomic.Int32
	boom := errors.New("transient")
	setOpen(s, func(path string, mmap bool) (graph.Store, func() error, error) {
		if opens.Add(1) == 1 {
			return nil, nil, boom
		}
		return graph.Open(path, mmap)
	})
	if _, err := s.graphFor(GraphRef{Path: "g.bin"}); !errors.Is(err, boom) {
		t.Fatalf("first request: %v, want the open's error", err)
	}
	for i := range 2 {
		if st, err := s.graphFor(GraphRef{Path: "g.bin"}); err != nil || st == nil {
			t.Fatalf("request %d after the failure: %v", i+2, err)
		}
	}
	if opens.Load() != 2 {
		t.Fatalf("%d opens, want 2: the failure retried once, the success cached", opens.Load())
	}
}

// TestGraphOpenAfterClose: a store whose open ends after Close began is closed by
// its opener, and the request gets an error instead of it.
func TestGraphOpenAfterClose(t *testing.T) {
	dir, _ := writeGraphDir(t)
	s := New(Config{GraphDir: dir})
	entered, hold := make(chan struct{}), make(chan struct{})
	var closed atomic.Int32
	setOpen(s, func(path string, mmap bool) (graph.Store, func() error, error) {
		close(entered)
		<-hold
		st, c, err := graph.Open(path, mmap)
		return st, func() error { closed.Add(1); return c() }, err
	})
	got := make(chan error, 1)
	go func() {
		_, err := s.graphFor(GraphRef{Path: "g.bin"})
		got <- err
	}()
	<-entered
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(hold)
	if err := <-got; !errors.Is(err, errServerClosed) {
		t.Fatalf("request finishing after Close: %v, want %v", err, errServerClosed)
	}
	if closed.Load() != 1 {
		t.Fatalf("the late store was closed %d times, want 1", closed.Load())
	}
	if _, err := s.graphFor(GraphRef{Path: "g.bin"}); !errors.Is(err, errServerClosed) {
		t.Fatalf("request after Close: %v", err)
	}
}
