package jobs

// Batching is an optimization, never a semantics change: a job counts what its
// pattern counts alone, whatever batch it ran in.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// solo is what the named pattern counts alone on g under core.PaperBaseline.
func solo(t *testing.T, g graph.Store, name string) int64 {
	t.Helper()
	pat, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(pat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Mine(g, pl, core.PaperBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	return res.Count()
}

// burstJob is one submission of a burst: its pattern's catalog name and the
// request body that names the pattern or spells out its edges.
type burstJob struct{ name, body string }

// runBursts submits each burst co-queued behind a pause, as the HTTP decoder reads
// it. Every job returns the count its pattern mines alone, and at least half of
// them ran in a batch wider than one. The merged trees are where lowering counts
// one child of a node and extends the others (DESIGN.md decisions 22 and 24): a
// count that leaked between the patterns of a tree would show here and in no
// single-pattern test.
func runBursts(t *testing.T, bursts [][]burstJob) {
	g := graph.RMAT(9, 5000, 0.45, 0.22, 0.22, 7)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)
	want := map[string]int64{}
	jobs, batched := 0, 0
	for _, b := range bursts {
		sent := map[string]burstJob{}
		s.Pause()
		for _, j := range b {
			req, pat, err := ParseSubmit([]byte(j.body))
			if err != nil {
				t.Fatalf("%s: %v", j.body, err)
			}
			id, err := s.Submit(req, pat)
			if err != nil {
				t.Fatal(err)
			}
			sent[id] = j
		}
		s.Resume()
		for id, j := range sent {
			name := j.name
			if st := waitDone(t, s, id); st.State != StateDone {
				t.Fatalf("job %s (%s): %s (%s)", id, name, st.State, st.Error)
			}
			res, err := s.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := want[name]; !ok {
				if want[name] = solo(t, g, name); want[name] == 0 {
					t.Fatalf("the graph holds no %s; the comparison would be vacuous", name)
				}
			}
			if res.Count != want[name] {
				t.Errorf("%s in a batch of %d (%s) counted %d, alone %d", name, res.BatchWidth, j.body, res.Count, want[name])
			}
			if jobs++; res.BatchWidth > 1 {
				batched++
			}
		}
	}
	if batched < jobs/2 {
		t.Errorf("%d of %d jobs ran batched; the bursts did not merge", batched, jobs)
	}
}

func submitBody(tenant, ref string, workers int) string {
	return fmt.Sprintf(`{"tenant":%q,"graph":{"name":"g"},"pattern":%s,"options":{"workers":%d}}`, tenant, ref, workers)
}

// TestMetamorphicBatchedEqualsIndividual: seeded bursts of 2–8 same-size jobs from
// the 3- and 4-vertex catalog — each pattern by name or as the edges of a random
// relabelling, so that a burst holds isomorphic duplicates under both spellings —
// from one or two tenants, with 1 or 4 workers.
func TestMetamorphicBatchedEqualsIndividual(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	bursts := make([][]burstJob, 16)
	if testing.Short() {
		bursts = bursts[:4]
	}
	for i := range bursts {
		cat := pattern.Motifs(3 + r.Intn(2))
		workers, tenants := 1+3*r.Intn(2), 1+r.Intn(2)
		for n := 2 + r.Intn(7); n > 0; n-- {
			p := cat[r.Intn(len(cat))]
			ref := fmt.Sprintf(`{"name":%q}`, p.Name())
			if r.Intn(2) == 0 {
				edges, _ := json.Marshal(p.Relabel(r.Perm(p.Size())).Edges())
				ref = fmt.Sprintf(`{"vertices":%d,"edges":%s}`, p.Size(), edges)
			}
			bursts[i] = append(bursts[i], burstJob{p.Name(), submitBody(fmt.Sprint("t", r.Intn(tenants)), ref, workers)})
		}
	}
	runBursts(t, bursts)
}

// TestBurstSetEqualsSolo: the benchmark's burst — two tenants, the eight catalog
// patterns each, sixteen jobs co-queued behind a pause — under 1 and 4 workers.
func TestBurstSetEqualsSolo(t *testing.T) {
	var bursts [][]burstJob
	for _, workers := range []int{1, 4} {
		var b []burstJob
		for _, tenant := range []string{"A", "B"} {
			for _, name := range []string{"diamond", "tailed-triangle", "4-cycle", "4-clique", "4-star", "4-path", "triangle", "wedge"} {
				b = append(b, burstJob{name, submitBody(tenant, fmt.Sprintf(`{"name":%q}`, name), workers)})
			}
		}
		bursts = append(bursts, b)
	}
	runBursts(t, bursts)
}
