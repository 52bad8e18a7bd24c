//go:build unix

package graph

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// writeTempBin saves g to a temp .bin and returns the path.
func writeTempBin(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMappedMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"rmat", RMAT(10, 4000, 0.57, 0.19, 0.19, 7)},
		{"rmat-dag", RMAT(10, 4000, 0.57, 0.19, 0.19, 7).Orient()},
		{"empty", MustFromEdges(3, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempBin(t, tc.g)
			heap, err := LoadBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.NumVertices() != heap.NumVertices() || m.NumArcs() != heap.NumArcs() ||
				m.NumEdges() != heap.NumEdges() || m.IsDAG() != heap.IsDAG() ||
				m.MaxDegree() != heap.MaxDegree() || m.AvgDegree() != heap.AvgDegree() {
				t.Fatalf("mapped scalar stats differ from heap load")
			}
			for v := 0; v < heap.NumVertices(); v++ {
				if m.AdjStart(VID(v)) != heap.AdjStart(VID(v)) {
					t.Fatalf("AdjStart(%d) differs", v)
				}
				ma, ha := m.Adj(VID(v)), heap.Adj(VID(v))
				if len(ma) != len(ha) {
					t.Fatalf("Adj(%d) length differs", v)
				}
				if len(ma) > 0 && !reflect.DeepEqual(ma, ha) {
					t.Fatalf("Adj(%d) differs", v)
				}
			}
			if ms, hs := ComputeStats("x", m), ComputeStats("x", heap); ms != hs {
				t.Fatalf("ComputeStats differ: %+v vs %+v", ms, hs)
			}
		})
	}
}

// TestOpenMappedRejectsV1: the heap and the mapped open both name the retired
// version 1 — the one decoder reads its version field before anything else.
func TestOpenMappedRejectsV1(t *testing.T) {
	good, err := os.ReadFile(writeTempBin(t, RMAT(8, 1000, 0.45, 0.22, 0.22, 5)))
	if err != nil {
		t.Fatal(err)
	}
	good[4] = 1
	path := filepath.Join(t.TempDir(), "v1.bin")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "unsupported binary version 1"
	if _, err := LoadBinary(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("heap v1 open: got %v, want %q", err, want)
	}
	if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("mapped v1 open: got %v, want %q", err, want)
	}
}

func TestOpenMappedRejectsCorrupt(t *testing.T) {
	g := RMAT(8, 600, 0.45, 0.22, 0.22, 3)
	path := writeTempBin(t, g)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-4] },
		"bad row":     func(b []byte) []byte { b[binHeaderSize+8] ^= 0xFF; return b },
		"bad col":     func(b []byte) []byte { b[len(b)-1] = 0xFF; return b },
		"bad maxdeg":  func(b []byte) []byte { b[32] ^= 0x01; return b },
		"shard slice": func(b []byte) []byte { b[8] |= binFlagShard; return b },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.bin")
			if err := os.WriteFile(p, mut(append([]byte(nil), good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenMapped(p); err == nil {
				t.Fatalf("corrupt mapped file accepted")
			}
		})
	}
	// The shard flag is fine when explicitly allowed (shard files reuse the
	// same opener); only whole-graph opens reject it.
}

func TestOpenMappedCloseIdempotent(t *testing.T) {
	path := writeTempBin(t, MustFromEdges(4, []Edge{{0, 1}, {1, 2}}))
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Row != nil || m.Col != nil {
		t.Fatal("views not cleared on close")
	}
}

// TestOpenMappedConstantHeap asserts the acceptance criterion that a mapped
// graph costs O(1) heap for adjacency storage: opening a multi-megabyte file
// must grow the heap by a small constant, not by the array sizes.
func TestOpenMappedConstantHeap(t *testing.T) {
	g := RMAT(14, 250_000, 0.57, 0.19, 0.19, 11)
	path := writeTempBin(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 1<<20 {
		t.Fatalf("fixture too small (%d bytes) to make the bound meaningful", fi.Size())
	}
	g = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer m.Close()
	// Generous constant bound: the store struct, the finalizer record, and
	// open-time bookkeeping — but nothing proportional to Row/Col.
	const bound = 256 << 10
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Fatalf("OpenMapped grew heap by %d bytes for a %d-byte file; want O(1) (< %d)", grew, fi.Size(), bound)
	}
	if m.NumVertices() != 1<<14 {
		t.Fatalf("mapped graph unusable after MemStats check")
	}
}

// TestMappedAdjReadOnly proves the aliasing hazard is real and deterministic:
// writing into an Adj slice of a mapped graph dies with a memory fault. The
// write happens in a child process (the fault is unrecoverable in Go), and
// the parent asserts on the death certificate.
func TestMappedAdjReadOnly(t *testing.T) {
	if os.Getenv("GRAPH_MMAP_WRITE_CHILD") == "1" {
		m, err := OpenMapped(os.Getenv("GRAPH_MMAP_WRITE_PATH"))
		if err != nil {
			fmt.Println("child open failed:", err)
			os.Exit(3)
		}
		adj := m.Adj(0)
		adj[0] = 42 // write into read-only pages: SIGSEGV here
		fmt.Println("child survived the write")
		os.Exit(4)
	}
	path := writeTempBin(t, MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}}))
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMappedAdjReadOnly$", "-test.v")
	cmd.Env = append(os.Environ(),
		"GRAPH_MMAP_WRITE_CHILD=1",
		"GRAPH_MMAP_WRITE_PATH="+path,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child wrote to mapped adjacency and lived:\n%s", out)
	}
	if strings.Contains(string(out), "child survived the write") {
		t.Fatalf("write to mapped adjacency did not fault:\n%s", out)
	}
	if !strings.Contains(string(out), "unexpected fault address") &&
		!strings.Contains(string(out), "SIGSEGV") && !strings.Contains(string(out), "SIGBUS") {
		t.Fatalf("child died, but not from a memory fault:\n%s", out)
	}
}
