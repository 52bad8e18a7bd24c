package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// loadBytes saves b as a file and loads it the way every heap open does.
func loadBytes(t *testing.T, b []byte) (*Graph, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadBinary(path)
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestWriteBinaryPageAlignedHeader(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	wantLen := binHeaderSize + 8*(g.NumVertices()+1) + 4*len(g.Col)
	if len(b) != wantLen {
		t.Fatalf("encoded length = %d, want %d", len(b), wantLen)
	}
	le := binary.LittleEndian
	if le.Uint32(b[4:]) != binVersion {
		t.Fatalf("version = %d, want %d", le.Uint32(b[4:]), binVersion)
	}
	if got := int64(le.Uint64(b[32:])); got != int64(g.MaxDegree()) {
		t.Fatalf("header max degree = %d, want %d", got, g.MaxDegree())
	}
	if int64(le.Uint64(b[binHeaderSize:])) != 0 {
		t.Fatalf("Row[0] not at offset %d", binHeaderSize)
	}
}

// TestSaveBinaryReportsWriteError: a file that takes no bytes makes SaveBinary
// fail, not return nil with the graph lost. /dev/full refuses every write with
// ENOSPC; a failing Close, the other error SaveBinary returns, cannot be forced on
// a local filesystem.
func TestSaveBinaryReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	if err := SaveBinary("/dev/full", MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})); err == nil {
		t.Fatal("SaveBinary to /dev/full returned nil")
	}
}

// TestReadBinaryCorrupt exercises the decoder's checks one corruption at a
// time through LoadBinary: every case must error, never panic, and never
// allocate more than the file's bytes plus a little slack, whatever sizes the
// header claims.
func TestReadBinaryCorrupt(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	le := binary.LittleEndian

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b }), "magic"},
		{"bad version", mutate(func(b []byte) []byte { le.PutUint32(b[4:], 99); return b }), "version"},
		{"truncated header", good[:40], "short"},
		{"truncated row", good[:binHeaderSize+9], "header implies"},
		{"truncated col", good[:len(good)-2], "header implies"},
		{"trailing bytes", append(append([]byte(nil), good...), 0, 0, 0, 0), "header implies"},
		{"huge vertex count", mutate(func(b []byte) []byte { le.PutUint64(b[16:], 1<<50); return b }), "implausible vertex"},
		{"huge arc count", mutate(func(b []byte) []byte { le.PutUint64(b[24:], 1<<50); return b }), "implausible arc"},
		{"huge vertex count in a page", mutate(func(b []byte) []byte {
			le.PutUint64(b[16:], maxBinVertices)
			return b[:binHeaderSize]
		}), "header implies"},
		{"row not monotone", mutate(func(b []byte) []byte {
			le.PutUint64(b[binHeaderSize+8:], 1<<40) // Row[1] becomes negative-ish huge
			return b
		}), "Row"},
		{"row exceeds arcs", mutate(func(b []byte) []byte {
			le.PutUint64(b[binHeaderSize+8:], uint64(len(g.Col)+1))
			return b
		}), "Row"},
		{"col out of range", mutate(func(b []byte) []byte {
			le.PutUint32(b[binHeaderSize+8*(g.NumVertices()+1):], uint32(g.NumVertices()))
			return b
		}), "out of range"},
		{"max degree mismatch", mutate(func(b []byte) []byte { le.PutUint64(b[32:], 1); return b }), "max degree"},
		{"shard flag on whole read", mutate(func(b []byte) []byte { le.PutUint32(b[8:], le.Uint32(b[8:])|binFlagShard); return b }), "shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.bin")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if got := allocatedBy(func() { _, err = LoadBinary(path) }); got > uint64(len(tc.data))+16<<10 {
				t.Errorf("allocated %d bytes for a %d-byte file", got, len(tc.data))
			}
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadBinaryAllocatesTheFile: a heap load of a DAG (whose Validate clones
// nothing) allocates the file's bytes once, plus a constant — no chunk
// buffers, no growth by doubling.
func TestLoadBinaryAllocatesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dag.bin")
	if err := SaveBinary(path, RMAT(12, 40_000, 0.57, 0.19, 0.19, 3).Orient()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var g *Graph
	got := allocatedBy(func() { g, err = LoadBinary(path) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(fi.Size()) + 64<<10; got > limit {
		t.Fatalf("LoadBinary allocated %d bytes for a %d-byte file; want at most %d", got, fi.Size(), limit)
	}
	if g.NumVertices() != 1<<12 {
		t.Fatalf("loaded %d vertices, want %d", g.NumVertices(), 1<<12)
	}
}

// FuzzLoadBinary throws truncated and bit-flipped binary CSR files at the one
// decoder, as a whole file or as a shard slice with a drawn neighbor-ID
// bound. The property under test: the decoder either errors or returns a
// structurally valid CSR (Row from 0 to len(Col), monotone; every Col entry
// below the bound; the header's max degree) — never a panic, since a corrupt
// mapped file must error at open, not crash mid-mine. A whole file also goes
// through LoadBinary, which must only return graphs that pass Validate.
func FuzzLoadBinary(f *testing.F) {
	g := MustFromEdges(8, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}, {2, 6},
	})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good, false, uint64(0))
	v1 := append([]byte(nil), good...)
	v1[4] = 1 // the retired version
	f.Add(v1, false, uint64(0))
	f.Add(good[:len(good)/2], false, uint64(0))     // truncated mid-array
	f.Add(good[:binHeaderSize-1], false, uint64(0)) // truncated header
	f.Add([]byte{}, false, uint64(0))               // empty
	flip := append([]byte(nil), good...)
	flip[binHeaderSize+3] ^= 0x80 // bit-flip inside Row
	f.Add(flip, false, uint64(0))
	flip2 := append([]byte(nil), good...)
	flip2[len(flip2)-1] ^= 0x01 // bit-flip inside Col
	f.Add(flip2, false, uint64(0))
	var shard bytes.Buffer // vertices 2..5 of g, as WriteSharded cuts them
	row := []int64{0}
	for v := VID(2); v < 6; v++ {
		row = append(row, row[len(row)-1]+int64(g.Degree(v)))
	}
	hdr := binHeader{flags: binFlagShard, n: 4, arcs: uint64(row[4]), maxDegree: uint64(g.MaxDegree())}
	if err := writeCSR(&shard, hdr, row, g.Col[g.Row[2]:g.Row[6]]); err != nil {
		f.Fatal(err)
	}
	f.Add(shard.Bytes(), true, uint64(g.NumVertices()))

	f.Fuzz(func(t *testing.T, data []byte, wantShard bool, colRange uint64) {
		if !wantShard {
			colRange = 0
			if g, err := loadBytes(t, data); err == nil {
				if err := g.Validate(); err != nil {
					t.Fatalf("LoadBinary accepted a graph that fails Validate: %v", err)
				}
			}
		}
		b := alignedBytes(int64(len(data)))
		copy(b, data)
		g, err := decodeCSR(b, wantShard, colRange)
		if err != nil {
			return
		}
		n := g.NumVertices()
		if colRange == 0 {
			colRange = uint64(n)
		}
		if g.Row[0] != 0 || g.Row[n] != g.NumArcs() {
			t.Fatalf("accepted Row from %d to %d over %d arcs", g.Row[0], g.Row[n], g.NumArcs())
		}
		maxDeg := int64(0)
		for v := 0; v < n; v++ {
			d := g.Row[v+1] - g.Row[v]
			if d < 0 {
				t.Fatalf("accepted a Row that falls at %d", v)
			}
			maxDeg = max(maxDeg, d)
		}
		for i, c := range g.Col {
			if uint64(c) >= colRange {
				t.Fatalf("accepted Col[%d] = %d at bound %d", i, c, colRange)
			}
		}
		if hd := binary.LittleEndian.Uint64(data[32:]); uint64(maxDeg) != hd || g.MaxDegree() != int(maxDeg) {
			t.Fatalf("accepted max degree %d (header %d) for data's %d", g.MaxDegree(), hd, maxDeg)
		}
	})
}
