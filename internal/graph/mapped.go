package graph

// Mapped is the zero-copy, out-of-core storage backend: a binary CSR v2 file
// viewed directly through a read-only memory mapping. Opening is O(header +
// one validation sweep) in time and O(1) in heap — Row and Col are
// unsafe.Slice views of the mapping, so a graph far larger than RAM mines
// with adjacency demand-paged by the OS and evicted under pressure.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// Mapped is a read-only CSR graph backed by an mmap'd binary file.
//
// The embedded Graph's Row/Col alias the mapping: they are views of
// read-only pages, so writing through Adj results (or Row/Col directly) kills
// the process with an unrecoverable fault. Close unmaps the file, after which
// any access through the store faults as well — close only after mining
// completes. A finalizer unmaps on GC as a safety net for dropped stores.
type Mapped struct {
	// Graph provides every Store method over the mapped views; it is never
	// handed out by value.
	Graph
	path string
	data []byte

	closeOnce sync.Once
	closeErr  error
}

var _ Store = (*Mapped)(nil)

// OpenMapped maps the binary CSR v2 file at path as a read-only graph store.
// The whole file is validated structurally (header sanity, Row monotonicity,
// Col range) in one streaming sweep that allocates nothing, so a corrupt file
// errors here instead of faulting mid-mine. Version 1 files are rejected —
// their unaligned header cannot be viewed in place; rewrite them with
// `gengraph -convert` first.
func OpenMapped(path string) (*Mapped, error) {
	m, err := mapCSRFile(path, false, 0)
	if err != nil {
		return nil, err
	}
	runtime.SetFinalizer(m, func(m *Mapped) { m.Close() })
	return m, nil
}

// mapCSRFile maps the file at path and builds the store over the mapping
// (wantShard and colRange are newMapped's); on failure nothing stays mapped.
// OpenMapped and OpenSharded's per-shard open share it.
func mapCSRFile(path string, wantShard bool, colRange uint64) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < binHeaderSize {
		return nil, fmt.Errorf("graph: %s: file too small for a v2 binary CSR header", path)
	}
	data, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	m, err := newMapped(path, data, wantShard, colRange)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return m, nil
}

// newMapped builds the store over an established mapping, validating layout
// and content. Shard files (wantShard) differ from whole graphs in one way: a
// shard's Row is local to its vertex range but its Col holds global IDs, so
// colRange overrides the neighbor-ID bound (0 means "the header's own n").
func newMapped(path string, data []byte, wantShard bool, colRange uint64) (*Mapped, error) {
	h, err := decodeBinHeader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	if h.version != binVersion {
		return nil, fmt.Errorf("graph: %s: version %d files cannot be mapped; re-save in the v2 format", path, h.version)
	}
	if h.isShard() && !wantShard {
		return nil, fmt.Errorf("graph: %s: file is a shard slice, not a whole graph (use OpenSharded on its directory)", path)
	}
	if !h.isShard() && wantShard {
		return nil, fmt.Errorf("graph: %s: whole-graph file where a shard slice was expected", path)
	}
	rowBytes := 8 * (h.n + 1)
	colBytes := 4 * h.arcs
	want := binHeaderSize + rowBytes + colBytes
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("graph: %s: file is %d bytes, header implies %d", path, len(data), want)
	}
	row := unsafe.Slice((*int64)(unsafe.Pointer(&data[binHeaderSize])), h.n+1)
	var col []VID
	if h.arcs > 0 {
		col = unsafe.Slice((*VID)(unsafe.Pointer(&data[binHeaderSize+rowBytes])), h.arcs)
	} else {
		col = []VID{}
	}
	if colRange == 0 {
		colRange = h.n
	}
	maxDeg, err := validateCSRViews(row, col, h, colRange)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	m := &Mapped{path: path, data: data}
	m.Row = row
	m.Col = col
	m.DAG = h.isDAG()
	m.maxDegree = maxDeg
	return m, nil
}

// validateCSRViews checks the structural invariants the mining hot path
// relies on — monotone Row with the right endpoints, every Col entry in
// range — in one allocation-free sweep, and cross-checks the recorded max
// degree. Neighbor-list sortedness is spot-checked by Validate-using tests,
// not here: a full check would not cost more, but the per-arc compare below
// already touches every page once, which is the expensive part.
func validateCSRViews(row []int64, col []VID, h binHeader, colRange uint64) (int, error) {
	if row[0] != 0 {
		return 0, fmt.Errorf("Row[0] = %d, want 0", row[0])
	}
	maxDeg := 0
	for v := 1; v < len(row); v++ {
		if row[v] < row[v-1] {
			return 0, fmt.Errorf("Row not monotone at entry %d", v)
		}
		if d := int(row[v] - row[v-1]); d > maxDeg {
			maxDeg = d
		}
	}
	if uint64(row[len(row)-1]) != h.arcs {
		return 0, fmt.Errorf("Row[%d] = %d, want arc count %d", len(row)-1, row[len(row)-1], h.arcs)
	}
	for i, c := range col {
		if uint64(c) >= colRange {
			return 0, fmt.Errorf("Col[%d] = %d out of range for %d vertices", i, c, colRange)
		}
	}
	if maxDeg != int(h.maxDegree) {
		return 0, fmt.Errorf("header max degree %d disagrees with data (%d)", h.maxDegree, maxDeg)
	}
	return maxDeg, nil
}

// Path returns the file backing the mapping.
func (m *Mapped) Path() string { return m.path }

// Close unmaps the file. Idempotent; the store must not be used afterwards —
// Row/Col views dangle once the pages are gone.
func (m *Mapped) Close() error {
	m.closeOnce.Do(func() {
		runtime.SetFinalizer(m, nil)
		m.Row, m.Col = nil, nil
		m.closeErr = munmapFile(m.data)
		m.data = nil
	})
	return m.closeErr
}
