package graph

// Sharded is the partitioned storage backend: the vertex space is split into
// contiguous ranges balanced by arc count (degree-aware, in the spirit of
// G²Miner's pattern-aware edge partitioning), each range's CSR slice lives in
// its own mmap'd file, and a manifest ties the directory together. Adj(v)
// routes to the owning shard in O(log shards). What it buys is capacity — a
// graph whose CSR exceeds one file or one mapping — not locality: the
// scheduler places tasks by degree, not by shard (DESIGN decision 13).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ManifestName is the file that marks a directory as a sharded graph.
const ManifestName = "manifest.json"

// Manifest describes a sharded graph directory.
type Manifest struct {
	Version   int           `json:"version"`
	Vertices  int           `json:"vertices"`
	Arcs      int64         `json:"arcs"`
	MaxDegree int           `json:"max_degree"`
	IsDAG     bool          `json:"is_dag"`
	Shards    []ShardExtent `json:"shards"`
}

// ShardExtent is one shard's slice of the vertex space: vertices [Lo, Hi)
// and the Arcs stored for them, in File (relative to the manifest directory).
type ShardExtent struct {
	File string `json:"file"`
	Lo   VID    `json:"lo"`
	Hi   VID    `json:"hi"`
	Arcs int64  `json:"arcs"`
}

// shardCuts partitions [0, n) into `shards` contiguous ranges with balanced
// arc counts: a greedy sweep cuts each range as soon as the running arc total
// reaches its proportional target. Contiguity keeps the global↔local vertex
// translation a subtraction and the owner lookup a binary search, which is
// why this is a sweep rather than unconstrained LPT bin-packing; with sorted
// CSR input the sweep is the optimal contiguous LPT relaxation anyway.
// Returns shards+1 boundaries: cut[s] .. cut[s+1] is shard s.
func shardCuts(g *Graph, shards int) []VID {
	n := g.NumVertices()
	total := g.NumArcs()
	cuts := make([]VID, shards+1)
	cuts[shards] = VID(n)
	v := 0
	for s := 1; s < shards; s++ {
		// Target for the first s shards, rounded so late shards aren't starved.
		target := total * int64(s) / int64(shards)
		for v < n && g.Row[v+1] < target {
			v++
		}
		// Leave room for the remaining shards-s cuts.
		if maxV := n - (shards - s); v > maxV {
			v = maxV
		}
		if v < int(cuts[s-1]) {
			v = int(cuts[s-1])
		}
		cuts[s] = VID(v)
	}
	return cuts
}

// WriteSharded splits g into `shards` degree-balanced contiguous shard files
// under dir (created if missing) plus a manifest.json. Each shard file is a
// binary CSR v2 slice: Row rebased to the shard's range, Col keeping global
// vertex IDs, and the shard flag set so it cannot be mistaken for a whole
// graph.
func WriteSharded(dir string, g *Graph, shards int) error {
	n := g.NumVertices()
	if shards < 1 {
		return fmt.Errorf("graph: shard count %d < 1", shards)
	}
	if shards > n {
		return fmt.Errorf("graph: shard count %d exceeds vertex count %d", shards, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cuts := shardCuts(g, shards)
	man := Manifest{
		Version:   1,
		Vertices:  n,
		Arcs:      g.NumArcs(),
		MaxDegree: g.MaxDegree(),
		IsDAG:     g.DAG,
	}
	for s := 0; s < shards; s++ {
		lo, hi := cuts[s], cuts[s+1]
		row := make([]int64, hi-lo+1)
		base := g.Row[lo]
		maxDeg := 0
		for i := range row {
			row[i] = g.Row[int(lo)+i] - base
			if i > 0 {
				if d := int(row[i] - row[i-1]); d > maxDeg {
					maxDeg = d
				}
			}
		}
		col := g.Col[base:g.Row[hi]]
		flags := uint32(binFlagShard)
		if g.DAG {
			flags |= binFlagDAG
		}
		hdr := binHeader{
			flags:     flags,
			n:         uint64(hi - lo),
			arcs:      uint64(len(col)),
			maxDegree: uint64(maxDeg),
		}
		name := fmt.Sprintf("shard-%03d.bin", s)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := writeCSR(f, hdr, row, col); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		man.Shards = append(man.Shards, ShardExtent{File: name, Lo: lo, Hi: hi, Arcs: int64(len(col))})
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(mb, '\n'), 0o644)
}

// Sharded is a read-only CSR graph assembled from mmap'd shard slices.
// Safe for concurrent readers; Close unmaps every shard.
type Sharded struct {
	dir    string
	man    Manifest
	cuts   []VID   // len shards+1; shard s owns [cuts[s], cuts[s+1])
	base   []int64 // global arc offset of each shard's first arc
	shards []*Mapped
}

var _ Store = (*Sharded)(nil)

// IsShardedDir reports whether path is a directory holding a shard manifest;
// loaders use it to route -graph arguments.
func IsShardedDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// OpenSharded opens a directory written by WriteSharded, mapping every shard
// file. The manifest and each shard are cross-validated (contiguous ranges
// covering the vertex space, arc totals, per-shard structural sweep), so a
// torn or mixed-up directory errors at open.
func OpenSharded(dir string) (*Sharded, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("graph: %s: bad manifest: %w", dir, err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("graph: %s: unsupported manifest version %d", dir, man.Version)
	}
	if len(man.Shards) == 0 {
		return nil, fmt.Errorf("graph: %s: manifest lists no shards", dir)
	}
	s := &Sharded{
		dir:  dir,
		man:  man,
		cuts: make([]VID, 0, len(man.Shards)+1),
		base: make([]int64, 0, len(man.Shards)),
	}
	arcSum := int64(0)
	for i, ext := range man.Shards {
		wantLo := VID(0)
		if i > 0 {
			wantLo = man.Shards[i-1].Hi
		}
		if ext.Lo != wantLo || ext.Hi < ext.Lo {
			s.Close()
			return nil, fmt.Errorf("graph: %s: shard %d range [%d,%d) not contiguous", dir, i, ext.Lo, ext.Hi)
		}
		// A shard's Col holds global IDs, bounded by the whole graph's size.
		m, err := mapCSRFile(filepath.Join(dir, ext.File), true, uint64(man.Vertices))
		if err != nil {
			s.Close()
			return nil, err
		}
		if m.NumVertices() != int(ext.Hi-ext.Lo) || m.NumArcs() != ext.Arcs || m.IsDAG() != man.IsDAG {
			m.Close()
			s.Close()
			return nil, fmt.Errorf("graph: %s: shard %d disagrees with manifest", dir, i)
		}
		s.cuts = append(s.cuts, ext.Lo)
		s.base = append(s.base, arcSum)
		s.shards = append(s.shards, m)
		arcSum += ext.Arcs
	}
	last := man.Shards[len(man.Shards)-1]
	if int(last.Hi) != man.Vertices {
		s.Close()
		return nil, fmt.Errorf("graph: %s: shards cover %d vertices, manifest says %d", dir, last.Hi, man.Vertices)
	}
	if arcSum != man.Arcs {
		s.Close()
		return nil, fmt.Errorf("graph: %s: shards hold %d arcs, manifest says %d", dir, arcSum, man.Arcs)
	}
	maxDeg := 0
	for _, m := range s.shards {
		if m.MaxDegree() > maxDeg {
			maxDeg = m.MaxDegree()
		}
	}
	if maxDeg != man.MaxDegree {
		s.Close()
		return nil, fmt.Errorf("graph: %s: shard max degree %d disagrees with manifest %d", dir, maxDeg, man.MaxDegree)
	}
	s.cuts = append(s.cuts, last.Hi)
	return s, nil
}

// NumShards returns the number of shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the index of the shard owning vertex v.
func (s *Sharded) ShardOf(v VID) int {
	// First cut > v, minus one: shard ranges are [cuts[i], cuts[i+1]).
	return sort.Search(len(s.shards), func(i int) bool { return s.cuts[i+1] > v })
}

// NumVertices returns |V|.
func (s *Sharded) NumVertices() int { return s.man.Vertices }

// NumEdges returns |E| for symmetric graphs, stored arcs for DAGs.
func (s *Sharded) NumEdges() int64 {
	if s.man.IsDAG {
		return s.man.Arcs
	}
	return s.man.Arcs / 2
}

// NumArcs returns the number of stored directed arcs.
func (s *Sharded) NumArcs() int64 { return s.man.Arcs }

// Degree returns the stored out-degree of v.
func (s *Sharded) Degree(v VID) int {
	i := s.ShardOf(v)
	return s.shards[i].Degree(v - s.cuts[i])
}

// MaxDegree returns the maximum degree over all vertices.
func (s *Sharded) MaxDegree() int { return s.man.MaxDegree }

// AvgDegree returns the mean number of stored neighbors per vertex.
func (s *Sharded) AvgDegree() float64 {
	if s.man.Vertices == 0 {
		return 0
	}
	return float64(s.man.Arcs) / float64(s.man.Vertices)
}

// Adj returns the sorted neighbor list of v from its owning shard. Read-only:
// the slice views mmap'd pages.
func (s *Sharded) Adj(v VID) []VID {
	i := s.ShardOf(v)
	return s.shards[i].Adj(v - s.cuts[i])
}

// AdjStart returns v's neighbor-list offset in the virtual global Col array.
func (s *Sharded) AdjStart(v VID) int64 {
	i := s.ShardOf(v)
	return s.base[i] + s.shards[i].AdjStart(v-s.cuts[i])
}

// IsDAG reports whether the sharded graph was degree-oriented before
// splitting.
func (s *Sharded) IsDAG() bool { return s.man.IsDAG }

// Close unmaps every shard. Idempotent.
func (s *Sharded) Close() error {
	var first error
	for _, m := range s.shards {
		if m == nil {
			continue
		}
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
