package pattern

// The pattern catalog: named patterns used throughout the paper (Fig 3,
// Fig 11) plus generators for pattern families and the connected k-pattern
// enumeration behind k-motif counting.

import (
	"fmt"
	"strconv"
	"strings"
)

// Triangle returns K_3.
func Triangle() *Pattern { return KClique(3).WithName("triangle") }

// KClique returns the complete pattern K_k (TC is 3-CL).
func KClique(k int) *Pattern {
	p := New(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			p.AddEdge(u, v)
		}
	}
	return p.WithName(fmt.Sprintf("%d-clique", k))
}

// KCycle returns the simple cycle C_k (k ≥ 3). The 4-cycle is the paper's
// running example (Fig 4, Listing 1).
func KCycle(k int) *Pattern {
	p := New(k)
	for v := 0; v < k; v++ {
		p.AddEdge(v, (v+1)%k)
	}
	return p.WithName(fmt.Sprintf("%d-cycle", k))
}

// KPath returns the simple path P_k on k vertices (k-1 edges).
func KPath(k int) *Pattern {
	p := New(k)
	for v := 0; v+1 < k; v++ {
		p.AddEdge(v, v+1)
	}
	return p.WithName(fmt.Sprintf("%d-path", k))
}

// KStar returns the star S_k: one center connected to k-1 leaves.
func KStar(k int) *Pattern {
	p := New(k)
	for v := 1; v < k; v++ {
		p.AddEdge(0, v)
	}
	return p.WithName(fmt.Sprintf("%d-star", k))
}

// Wedge returns the 3-path (two edges sharing a vertex) — the sparse 3-motif.
func Wedge() *Pattern { return KPath(3).WithName("wedge") }

// Diamond returns K_4 minus one edge (Fig 11b).
func Diamond() *Pattern {
	return FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}).WithName("diamond")
}

// TailedTriangle returns a triangle with a pendant edge (Fig 11c).
func TailedTriangle() *Pattern {
	return FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}).WithName("tailed-triangle")
}

// House returns the 5-vertex "house": a 4-cycle with a triangle roof.
func House() *Pattern {
	return FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}}).WithName("house")
}

// FourCycle returns C_4.
func FourCycle() *Pattern { return KCycle(4) }

// ByName resolves a pattern from its catalog name; it understands the fixed
// names above plus "k-clique", "k-cycle", "k-path", "k-star" forms such as
// "6-clique".
func ByName(name string) (*Pattern, error) {
	switch name {
	case "triangle":
		return Triangle(), nil
	case "wedge":
		return Wedge(), nil
	case "diamond":
		return Diamond(), nil
	case "tailed-triangle":
		return TailedTriangle(), nil
	case "house":
		return House(), nil
	}
	num, kind, _ := strings.Cut(name, "-")
	if k, err := strconv.Atoi(num); err == nil {
		if k < 1 || k > MaxVertices {
			return nil, fmt.Errorf("pattern: size %d out of range in %q", k, name)
		}
		switch kind {
		case "clique":
			return KClique(k), nil
		case "cycle":
			if k < 3 {
				return nil, fmt.Errorf("pattern: cycle needs k>=3, got %q", name)
			}
			return KCycle(k), nil
		case "path":
			return KPath(k), nil
		case "star":
			return KStar(k), nil
		}
	}
	return nil, fmt.Errorf("pattern: unknown pattern %q", name)
}

// Motifs enumerates all connected patterns on k vertices up to isomorphism,
// in a deterministic order (by canonical code). For k=3 this yields the wedge
// and triangle; for k=4 the six 4-motifs of Fig 3.
func Motifs(k int) []*Pattern {
	if k < 2 || k > 6 {
		panic(fmt.Sprintf("pattern: Motifs supports 2..6 vertices, got %d", k))
	}
	nPairs := k * (k - 1) / 2
	seen := map[uint64]*Pattern{}
	var codes []uint64
	for mask := 0; mask < 1<<uint(nPairs); mask++ {
		p := New(k)
		bit := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if mask&(1<<uint(bit)) != 0 {
					p.AddEdge(i, j)
				}
				bit++
			}
		}
		if !p.IsConnected() {
			continue
		}
		code := p.CanonicalCode()
		if _, ok := seen[code]; !ok {
			seen[code] = p
			codes = append(codes, code)
		}
	}
	sortUint64(codes)
	out := make([]*Pattern, 0, len(codes))
	for i, c := range codes {
		p := seen[c]
		p.name = motifName(k, p, i)
		out = append(out, p)
	}
	return out
}

// motifName assigns stable human-readable names to small motifs, falling back
// to an indexed name for larger k.
func motifName(k int, p *Pattern, idx int) string {
	named := []*Pattern{
		Wedge(), Triangle(),
		KPath(4), KStar(4), KCycle(4), TailedTriangle(), Diamond(), KClique(4),
	}
	for _, q := range named {
		if q.Size() == k && p.IsIsomorphic(q) {
			return q.Name()
		}
	}
	return fmt.Sprintf("%d-motif-%d", k, idx)
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
