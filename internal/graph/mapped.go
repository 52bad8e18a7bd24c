package graph

// Mapped is the zero-copy, out-of-core storage backend: a binary CSR file
// viewed directly through a read-only memory mapping. Opening is O(header +
// one validation sweep) in time and O(1) in heap — Row and Col are
// unsafe.Slice views of the mapping, so a graph far larger than RAM mines
// with adjacency demand-paged by the OS and evicted under pressure.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
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

// OpenMapped maps the binary CSR file at path as a read-only graph store.
// decodeCSR checks the header, the length and the structure (Row
// monotonicity, Col range) in one sweep over the mapping that allocates
// nothing, so a corrupt file errors here instead of faulting mid-mine. Unlike
// LoadBinary it does not run Validate, whose symmetry check clones Row onto
// the heap.
func OpenMapped(path string) (*Mapped, error) {
	m, err := mapCSRFile(path, false, 0)
	if err != nil {
		return nil, err
	}
	runtime.SetFinalizer(m, func(m *Mapped) { m.Close() })
	return m, nil
}

// mapCSRFile maps the file at path and decodes the mapping (wantShard and
// colRange are decodeCSR's); on failure nothing stays mapped. OpenMapped and
// OpenSharded's per-shard open share it.
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
	data, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	m := &Mapped{path: path, data: data}
	if m.Graph, err = decodeCSR(data, wantShard, colRange); err != nil {
		munmapFile(data)
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return m, nil
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
