//go:build unix

package graph

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTempShards splits g into a fresh temp dir and returns it.
func writeTempShards(t *testing.T, g *Graph, shards int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "shards")
	if err := WriteSharded(dir, g, shards); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestShardedMatchesHeap(t *testing.T) {
	graphs := map[string]*Graph{
		"rmat":     RMAT(10, 4000, 0.57, 0.19, 0.19, 7),
		"rmat-dag": RMAT(10, 4000, 0.57, 0.19, 0.19, 7).Orient(),
		"er":       ErdosRenyi(300, 2200, 13),
	}
	for name, g := range graphs {
		for _, shards := range []int{1, 2, 4, 7} {
			t.Run(name, func(t *testing.T) {
				dir := writeTempShards(t, g, shards)
				s, err := OpenSharded(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.NumShards() != shards {
					t.Fatalf("NumShards = %d, want %d", s.NumShards(), shards)
				}
				if s.NumVertices() != g.NumVertices() || s.NumArcs() != g.NumArcs() ||
					s.NumEdges() != g.NumEdges() || s.IsDAG() != g.IsDAG() ||
					s.MaxDegree() != g.MaxDegree() || s.AvgDegree() != g.AvgDegree() {
					t.Fatalf("sharded scalar stats differ from heap")
				}
				for v := 0; v < g.NumVertices(); v++ {
					if s.Degree(VID(v)) != g.Degree(VID(v)) {
						t.Fatalf("Degree(%d) differs", v)
					}
					if s.AdjStart(VID(v)) != g.AdjStart(VID(v)) {
						t.Fatalf("AdjStart(%d) differs", v)
					}
					sa, ga := s.Adj(VID(v)), g.Adj(VID(v))
					if len(sa) != len(ga) || (len(sa) > 0 && !reflect.DeepEqual(sa, ga)) {
						t.Fatalf("Adj(%d) differs", v)
					}
					want := s.ShardOf(VID(v))
					if VID(v) < s.cuts[want] || VID(v) >= s.cuts[want+1] {
						t.Fatalf("ShardOf(%d) = %d outside its range", v, want)
					}
				}
				if ss, gs := ComputeStats("x", s), ComputeStats("x", g); ss != gs {
					t.Fatalf("ComputeStats differ: %+v vs %+v", ss, gs)
				}
			})
		}
	}
}

// TestShardCutsBalanced checks the degree-aware sweep's guarantee: no shard
// exceeds its proportional arc share by more than one vertex's degree.
func TestShardCutsBalanced(t *testing.T) {
	g := RMAT(11, 16000, 0.57, 0.19, 0.19, 21)
	const shards = 4
	cuts := shardCuts(g, shards)
	slack := int64(g.MaxDegree() + shards)
	for s := 0; s < shards; s++ {
		arcs := g.Row[cuts[s+1]] - g.Row[cuts[s]]
		if arcs > g.NumArcs()/shards+slack {
			t.Fatalf("shard %d holds %d arcs, want ≤ %d+%d", s, arcs, g.NumArcs()/shards, slack)
		}
	}
}

func TestWriteShardedRejectsBadCounts(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}})
	dir := t.TempDir()
	if err := WriteSharded(dir, g, 0); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if err := WriteSharded(dir, g, 5); err == nil {
		t.Fatal("accepted more shards than vertices")
	}
}

func TestOpenShardedRejectsTamperedManifest(t *testing.T) {
	g := RMAT(8, 1200, 0.45, 0.22, 0.22, 3)
	mutations := map[string]func(*Manifest){
		"version":     func(m *Manifest) { m.Version = 9 },
		"vertices":    func(m *Manifest) { m.Vertices++ },
		"arcs":        func(m *Manifest) { m.Arcs++ },
		"max degree":  func(m *Manifest) { m.MaxDegree++ },
		"dag flip":    func(m *Manifest) { m.IsDAG = !m.IsDAG },
		"gap":         func(m *Manifest) { m.Shards[1].Lo++ },
		"shard arcs":  func(m *Manifest) { m.Shards[0].Arcs++ },
		"no shards":   func(m *Manifest) { m.Shards = nil },
		"wrong file":  func(m *Manifest) { m.Shards[0].File = m.Shards[1].File },
		"missing one": func(m *Manifest) { m.Shards[1].File = "nope.bin" },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := writeTempShards(t, g, 3)
			mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			var man Manifest
			if err := json.Unmarshal(mb, &man); err != nil {
				t.Fatal(err)
			}
			mut(&man)
			out, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestName), out, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenSharded(dir); err == nil {
				s.Close()
				t.Fatal("tampered manifest accepted")
			}
		})
	}
}

func TestOpenShardedRejectsWholeGraphFile(t *testing.T) {
	g := RMAT(8, 1200, 0.45, 0.22, 0.22, 3)
	dir := writeTempShards(t, g, 2)
	// Overwrite shard 0 with a whole-graph (unflagged) file; the shard-flag
	// check must catch it.
	if err := SaveBinary(filepath.Join(dir, "shard-000.bin"), g); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenSharded(dir); err == nil {
		s.Close()
		t.Fatal("whole-graph file accepted as shard")
	}
}

func TestIsShardedDir(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}})
	dir := writeTempShards(t, g, 2)
	if !IsShardedDir(dir) {
		t.Fatal("shard dir not recognized")
	}
	if IsShardedDir(filepath.Join(dir, "shard-000.bin")) {
		t.Fatal("file recognized as shard dir")
	}
	if IsShardedDir(t.TempDir()) {
		t.Fatal("empty dir recognized as shard dir")
	}
}

// TestOpen: the one graph-reference dispatch picks the backend the path and
// the mmap bit name, every backend serves the same graph, failures return a
// nil store with a callable closer, and the closer releases the mappings.
func TestOpen(t *testing.T) {
	g := RMAT(9, 2000, 0.57, 0.19, 0.19, 7)
	bin := writeTempBin(t, g)
	shards := writeTempShards(t, g, 3)
	txt := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// mapped reports whether the store still holds live mappings.
	mapped := func(s Store) bool {
		switch s := s.(type) {
		case *Mapped:
			return s.Row != nil
		case *Sharded:
			return s.shards[0].Row != nil
		}
		return false
	}
	for _, c := range []struct {
		name string
		path string
		mmap bool
		want Store // a nil pointer of the expected backend; nil for an error
	}{
		{"edge list", txt, false, (*Graph)(nil)},
		{"bin on the heap", bin, false, (*Graph)(nil)},
		{"bin mapped", bin, true, (*Mapped)(nil)},
		{"sharded dir", shards, false, (*Sharded)(nil)},
		{"sharded dir ignores mmap", shards, true, (*Sharded)(nil)},
		{"missing path", filepath.Join(t.TempDir(), "nope.bin"), false, nil},
		{"missing path mapped", filepath.Join(t.TempDir(), "nope.bin"), true, nil},
		{"text file cannot be mapped", txt, true, nil},
	} {
		s, closeS, err := Open(c.path, c.mmap)
		if closeS == nil {
			t.Fatalf("%s: nil closer", c.name)
		}
		if c.want == nil {
			if err == nil || s != nil {
				t.Errorf("%s: Open = (%T, %v), want a nil store and an error", c.name, s, err)
			}
			if cerr := closeS(); cerr != nil {
				t.Errorf("%s: closer after a failed open: %v", c.name, cerr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if reflect.TypeOf(s) != reflect.TypeOf(c.want) {
			t.Errorf("%s: opened a %T, want a %T", c.name, s, c.want)
		}
		// (Not NumVertices: an edge list does not record trailing isolated vertices.)
		if s.NumArcs() != g.NumArcs() || !reflect.DeepEqual(s.Adj(5), g.Adj(5)) {
			t.Errorf("%s: opened store differs from the graph written", c.name)
		}
		wasMapped := mapped(s)
		if _, heap := s.(*Graph); wasMapped == heap {
			t.Errorf("%s: live mappings = %v on a %T", c.name, wasMapped, s)
		}
		if err := closeS(); err != nil {
			t.Errorf("%s: close: %v", c.name, err)
		}
		if mapped(s) {
			t.Errorf("%s: closer left the file mapped", c.name)
		}
	}
}
