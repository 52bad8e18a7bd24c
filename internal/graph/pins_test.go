package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

// TestGeneratorPins holds every generator's output to FNV-64a hashes of its
// Row and Col arrays. Construction may change how it builds a graph, never
// which graph it builds: the pins were taken from the sort-based builder and
// must pass unmodified under any rewrite. The two RMAT quadrant settings are
// the benchmark's (0.57/0.19/0.19 and 0.45/0.22/0.22).
func TestGeneratorPins(t *testing.T) {
	for _, c := range []struct {
		name     string
		build    func() *Graph
		row, col uint64
	}{
		{"rmat-skewed", func() *Graph { return RMAT(12, 40000, 0.57, 0.19, 0.19, 0x5B) }, 0xc22800ad86e14368, 0x963aab20c99508f2},
		{"rmat-mild", func() *Graph { return RMAT(10, 8000, 0.45, 0.22, 0.22, 0x31) }, 0xfbe09ffe13949e7b, 0x6ab6a3a1a15bf800},
		{"chunglu", func() *Graph { return ChungLu(2000, 13000, 2.3, 0xA5) }, 0xdfe413f5b29f52ce, 0x43d51c9b57b370bf},
		{"er", func() *Graph { return ErdosRenyi(500, 3000, 3) }, 0x4d197f972804e8c3, 0x1840fa216a5f46d5},
		{"bipartite", func() *Graph { return Bipartite(40, 60, 500, 4) }, 0x5832a49c548b7362, 0x5ebac59383de0650},
		{"grid", func() *Graph { return Grid(7, 9) }, 0xe24720202c2a6143, 0x95066efaa10ac01b},
		{"ring", func() *Graph { return Ring(50, 3) }, 0xe3200a2a5b7bc8af, 0x45e52ad1d1611855},
		{"clique", func() *Graph { return Clique(12) }, 0xa53d4192fa701305, 0xfaa40ea00314d125},
		{"rmat-skewed-orient", func() *Graph { return RMAT(12, 40000, 0.57, 0.19, 0.19, 0x5B).Orient() }, 0xe4135bf8f1c6dc14, 0x35a58a71b1c51a59},
		{"rmat-store-orient", func() *Graph { return RMAT(15, 1<<18, 0.57, 0.19, 0.19, 0x5B).Orient() }, 0xe0c68b1eb21054ef, 0xd2e280cdbc258068},
		{"chunglu-orient", func() *Graph { return ChungLu(2000, 13000, 2.3, 0xA5).Orient() }, 0xb33838697d9f170, 0xf8e7ec4695c6de98},
	} {
		g := c.build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		row, col := hashCSR(g)
		if row != c.row || col != c.col {
			t.Errorf("%s: Row/Col hashes %#x/%#x, pinned %#x/%#x", c.name, row, col, c.row, c.col)
		}
	}
}

// TestRMATMatchesFloatQuadrants: the integer quadrant pick equals the float
// one it replaced, also on degenerate probabilities (zero, negative, above
// one, NaN) where the switch's first-match order decides.
func TestRMATMatchesFloatQuadrants(t *testing.T) {
	nan := math.NaN()
	for _, p := range [][3]float64{
		{0.57, 0.19, 0.19}, {0.25, 0.25, 0.25}, {0, 0, 0}, {1, 0, 0}, {0, 0, 1},
		{0.5, -0.1, 0.3}, {0.6, 0.6, 0.6}, {-1, 2, 0}, {nan, 0.2, 0.2}, {0.3, nan, 0.2}, {1e-300, 0, 0.5},
	} {
		got, want := RMAT(8, 3000, p[0], p[1], p[2], 9), floatRMAT(8, 3000, p[0], p[1], p[2], 9)
		if !slices.Equal(got.Row, want.Row) || !slices.Equal(got.Col, want.Col) {
			t.Errorf("RMAT(a, b, c = %v) differs from the float quadrant pick", p)
		}
	}
}

// floatRMAT is RMAT with each quadrant picked by comparing float64v() with
// the cumulative probabilities.
func floatRMAT(scale int, m int, a, b, c float64, seed uint64) *Graph {
	r := newRNG(seed)
	edges := make([]Edge, 0, m)
	for range m {
		u, v := 0, 0
		for bit := range scale {
			switch x := r.float64v(); {
			case x < a:
			case x < a+b:
				v |= 1 << bit
			case x < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, Edge{VID(u), VID(v)})
	}
	return MustFromEdges(1<<scale, edges)
}

// hashCSR returns the FNV-64a hashes of g.Row (little-endian int64s) and
// g.Col (little-endian uint32s).
func hashCSR(g *Graph) (row, col uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range g.Row {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	row = h.Sum64()
	h.Reset()
	for _, c := range g.Col {
		binary.LittleEndian.PutUint32(buf[:4], c)
		h.Write(buf[:4])
	}
	return row, h.Sum64()
}
