package core

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// TestListingMultiPattern routes embeddings to the right pattern index.
func TestListingMultiPattern(t *testing.T) {
	g := graph.ErdosRenyi(30, 110, 33)
	ps := []*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle()}
	pl, err := plan.CompileMulti(ps, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perPattern := make([]int64, len(ps))
	res, err := List(g, pl, Options{Threads: 3}, func(emb []graph.VID, idx int) {
		mu.Lock()
		perPattern[idx]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if perPattern[i] != res.Counts[i] {
			t.Errorf("%s: visited %d counted %d", ps[i].Name(), perPattern[i], res.Counts[i])
		}
	}
}

// TestListingRejectsNoSymmetryPlans: listing through an automorphism-divided
// plan would emit duplicates; the API must refuse.
func TestListingRejectsNoSymmetryPlans(t *testing.T) {
	g := graph.Clique(5)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{NoSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := List(g, pl, Options{}, func([]graph.VID, int) {}); err == nil {
		t.Error("no-symmetry plan accepted for listing")
	}
}
