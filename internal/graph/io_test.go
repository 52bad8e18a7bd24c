package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// encodeV1 renders g in the legacy version-1 binary layout (25-byte unaligned
// header) so the compatibility path stays covered now that WriteBinary emits
// version 2.
func encodeV1(g *Graph) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var hdr [25]byte
	le.PutUint32(hdr[0:], binMagic)
	le.PutUint32(hdr[4:], 1)
	if g.DAG {
		hdr[8] = 1
	}
	le.PutUint64(hdr[9:], uint64(g.NumVertices()))
	le.PutUint64(hdr[17:], uint64(len(g.Col)))
	buf.Write(hdr[:])
	for _, r := range g.Row {
		var b [8]byte
		le.PutUint64(b[:], uint64(r))
		buf.Write(b[:])
	}
	for _, c := range g.Col {
		var b [4]byte
		le.PutUint32(b[:], c)
		buf.Write(b[:])
	}
	return buf.Bytes()
}

func TestReadBinaryV1Compat(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	for _, gg := range []*Graph{g, g.Orient()} {
		g2, err := ReadBinary(bytes.NewReader(encodeV1(gg)))
		if err != nil {
			t.Fatalf("v1 read: %v", err)
		}
		if g2.NumVertices() != gg.NumVertices() || g2.NumArcs() != gg.NumArcs() || g2.IsDAG() != gg.IsDAG() {
			t.Fatalf("v1 round trip mismatch")
		}
	}
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

// TestReadBinaryCorrupt exercises the validation paths one corruption at a
// time; every case must error, never panic or over-allocate.
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
		{"truncated row", good[:binHeaderSize+9], "truncated Row"},
		{"truncated col", good[:len(good)-2], "truncated Col"},
		{"huge vertex count", mutate(func(b []byte) []byte { le.PutUint64(b[16:], 1<<50); return b }), "implausible vertex"},
		{"huge arc count", mutate(func(b []byte) []byte { le.PutUint64(b[24:], 1<<50); return b }), "implausible arc"},
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
			_, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzLoadBinary throws truncated and bit-flipped binary CSR files at the
// reader. The property under test: ReadBinary either returns a structurally
// valid graph or an error — it never panics, and never returns a graph that
// fails Validate (a corrupt mmap'd file must error at open, not crash
// mid-mine).
func FuzzLoadBinary(f *testing.F) {
	g := MustFromEdges(8, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}, {2, 6},
	})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(encodeV1(g))
	f.Add(good[:len(good)/2])     // truncated mid-array
	f.Add(good[:binHeaderSize-1]) // truncated header
	f.Add([]byte{})               // empty
	flip := append([]byte(nil), good...)
	flip[binHeaderSize+3] ^= 0x80 // bit-flip inside Row
	f.Add(flip)
	flip2 := append([]byte(nil), good...)
	flip2[len(flip2)-1] ^= 0x01 // bit-flip inside Col
	f.Add(flip2)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted a graph that fails Validate: %v", err)
		}
	})
}
