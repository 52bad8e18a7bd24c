package jobs

// The metamorphic headline of the job service: batching is an optimization,
// never a semantics change. For every pair and triple drawn from the
// 4-vertex motif catalog, the counts a batched CompileMulti job returns must
// DeepEqual the counts of the same patterns mined individually on a bare
// engine — across set-kernel policies and worker counts, since neither may
// influence what is counted.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// catalog5 is the 5-motif catalog the suite draws combos from: the 4-vertex
// motifs minus the clique (whose auto plan may take the DAG route, a
// different engine configuration than multi-pattern plans allow).
var catalog5 = []string{"4-path", "4-star", "4-cycle", "tailed-triangle", "diamond"}

func metaGraph() *graph.Graph { return graph.ChungLu(240, 1400, 2.3, 7) }

// mineIndividually runs one pattern on a bare engine with the given knobs.
func mineIndividually(t *testing.T, g graph.Store, name, kernel string, workers int) int64 {
	t.Helper()
	pat, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(pat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kp, err := core.ParseKernelPolicy(kernel)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, pl, core.Options{Threads: workers, Kernel: kp})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Mine().Counts[0]
}

// submitCombo submits every pattern of the combo to a paused server, resumes
// it so the dispatcher gathers them into one batch, and returns the counts in
// combo order.
func submitCombo(t *testing.T, s *Server, combo []string, kernel string, workers int) []int64 {
	t.Helper()
	s.Pause()
	ids := make([]string, len(combo))
	for i, name := range combo {
		pat, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(SubmitRequest{
			Tenant:  "meta",
			Graph:   GraphRef{Name: "g"},
			Pattern: PatternRef{Name: name},
			Options: EngineOptions{Workers: workers, Kernel: kernel},
		}, pat)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	s.Resume()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	counts := make([]int64, len(ids))
	for i, id := range ids {
		if err := s.Wait(ctx, id); err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		res, err := s.Result(id)
		if err != nil || res == nil {
			st, _ := s.Status(id)
			t.Fatalf("job %s (%s): state %s, error %q, result err %v", id, combo[i], st.State, st.Error, err)
		}
		if res.BatchWidth != len(combo) {
			t.Fatalf("job %s ran with batch width %d, want the whole combo %d — batching did not engage", id, res.BatchWidth, len(combo))
		}
		counts[i] = res.Count
	}
	return counts
}

// combos returns all size-2 and size-3 combinations of the catalog.
func combos(names []string) [][]string {
	var out [][]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			out = append(out, []string{names[i], names[j]})
			for k := j + 1; k < len(names); k++ {
				out = append(out, []string{names[i], names[j], names[k]})
			}
		}
	}
	return out
}

func TestMetamorphicBatchedEqualsIndividual(t *testing.T) {
	g := metaGraph()
	kernels := []string{"auto", "merge"}
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		kernels = []string{"auto"}
		workerCounts = []int{4}
	}

	// Individual baselines, computed once per (pattern, kernel, workers).
	type baseKey struct {
		name, kernel string
		workers      int
	}
	base := map[baseKey]int64{}
	for _, kern := range kernels {
		for _, w := range workerCounts {
			for _, name := range catalog5 {
				base[baseKey{name, kern, w}] = mineIndividually(t, g, name, kern, w)
			}
		}
	}

	for _, kern := range kernels {
		for _, w := range workerCounts {
			s := New(Config{
				Graphs:      map[string]graph.Store{"g": g},
				StartPaused: true,
				MaxQueue:    32,
			})
			for _, combo := range combos(catalog5) {
				got := submitCombo(t, s, combo, kern, w)
				want := make([]int64, len(combo))
				for i, name := range combo {
					want[i] = base[baseKey{name, kern, w}]
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("kernel=%s workers=%d combo=%v: batched counts %v != individual counts %v",
						kern, w, combo, got, want)
				}
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatalf("closing server: %v", err)
			}
		}
	}
}
