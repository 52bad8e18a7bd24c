package graph

// Loaders and writers. Two formats are supported:
//
//   - text edge list: one "u v" pair per line, '#' comments, whitespace
//     separated — the format SNAP distributes its datasets in, so real graphs
//     drop in unchanged;
//   - binary CSR: a compact little-endian dump for fast reload.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unsafe"
)

// ReadEdgeList parses a whitespace-separated edge list. Vertex IDs may be
// arbitrary non-negative integers; they are used directly, so the vertex
// count is max(ID)+1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		edges = append(edges, Edge{VID(u), VID(v)})
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(maxID+1, edges)
}

// LoadEdgeList reads a text edge list from a file.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes each undirected edge once as "u v" with u < v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Adj(VID(v)) {
			if g.DAG || VID(v) < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Binary CSR layout, version 2 — the only version written or read:
//
//	offset 0    magic      uint32  0xF1E7A11E
//	offset 4    version    uint32  2
//	offset 8    flags      uint32  bit 0: DAG, bit 1: shard slice
//	offset 12   reserved   uint32  0
//	offset 16   vertices   uint64  n
//	offset 24   arcs       uint64  len(Col)
//	offset 32   maxDegree  uint64
//	offset 40   zero padding to binHeaderSize
//	offset 4096 Row        (n+1) × int64, little endian
//	...         Col        arcs  × uint32, little endian
//
// The header is padded to a 4 kB page so that Row (and therefore Col, which
// follows the 8-byte-aligned Row block) is naturally aligned inside an mmap
// of the whole file or an 8-byte-aligned heap buffer: decodeCSR views both
// arrays in place, so a little-endian host is required. MaxDegree is
// recorded so opening does not need a second pass to size engine scratch
// buffers. Version 1 (an unaligned 25-byte header) is rejected by version;
// regenerate such a file from its edge list.
const (
	binMagic      = uint32(0xF1E7A11E) // "FlexMiner graph" magic
	binVersion    = 2
	binHeaderSize = 4096

	binFlagDAG   = 1 << 0
	binFlagShard = 1 << 1
)

// maxBinVertices/maxBinArcs bound header-declared sizes so that the file
// length a header implies cannot overflow.
const (
	maxBinVertices = 1 << 40
	maxBinArcs     = 1 << 42
)

// binHeader is the decoded fixed part of a binary CSR file.
type binHeader struct {
	flags     uint32
	n         uint64
	arcs      uint64
	maxDegree uint64
}

func (h binHeader) isDAG() bool   { return h.flags&binFlagDAG != 0 }
func (h binHeader) isShard() bool { return h.flags&binFlagShard != 0 }

// encode renders the full padded header page.
func (h binHeader) encode() []byte {
	buf := make([]byte, binHeaderSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], binMagic)
	le.PutUint32(buf[4:], binVersion)
	le.PutUint32(buf[8:], h.flags)
	le.PutUint64(buf[16:], h.n)
	le.PutUint64(buf[24:], h.arcs)
	le.PutUint64(buf[32:], h.maxDegree)
	return buf
}

// littleEndianHost reports whether the file's little-endian words can be
// viewed in place.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeCSR is the one reader of the binary CSR format; every open — heap,
// mapped and each shard — parses a file through it. data is a whole file,
// 8-byte aligned (a mapping, or LoadBinary's alignedBytes). It checks the
// header, the exact length the header implies, and the Row/Col structure
// (validateCSRViews), and returns a Graph whose Row and Col are views of data:
// nothing is copied, and nothing is sized from the header. wantShard says
// whether data must be a shard slice or a whole graph. A shard's Row is local
// to its vertex range but its Col holds global IDs, so colRange bounds the
// neighbor IDs (0 means the header's own n).
func decodeCSR(data []byte, wantShard bool, colRange uint64) (Graph, error) {
	le := binary.LittleEndian
	switch {
	case !littleEndianHost:
		return Graph{}, errors.New("binary CSR arrays are little-endian and viewed in place: this host is big-endian")
	case uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0:
		return Graph{}, errors.New("binary CSR bytes are not 8-byte aligned")
	case len(data) < 8:
		return Graph{}, fmt.Errorf("short binary CSR header: file is %d bytes", len(data))
	case le.Uint32(data) != binMagic:
		return Graph{}, errors.New("bad magic in binary CSR file")
	case le.Uint32(data[4:]) != binVersion:
		return Graph{}, fmt.Errorf("unsupported binary version %d", le.Uint32(data[4:]))
	case len(data) < binHeaderSize:
		return Graph{}, fmt.Errorf("short binary CSR header: file is %d bytes, the header alone %d", len(data), binHeaderSize)
	}
	h := binHeader{
		flags:     le.Uint32(data[8:]),
		n:         le.Uint64(data[16:]),
		arcs:      le.Uint64(data[24:]),
		maxDegree: le.Uint64(data[32:]),
	}
	switch {
	case h.n > maxBinVertices:
		return Graph{}, fmt.Errorf("implausible vertex count %d in header", h.n)
	case h.arcs > maxBinArcs:
		return Graph{}, fmt.Errorf("implausible arc count %d in header", h.arcs)
	case h.isShard() && !wantShard:
		return Graph{}, errors.New("file is a shard slice, not a whole graph (use OpenSharded on its directory)")
	case !h.isShard() && wantShard:
		return Graph{}, errors.New("whole-graph file where a shard slice was expected")
	}
	rowBytes := 8 * (h.n + 1)
	if want := binHeaderSize + rowBytes + 4*h.arcs; uint64(len(data)) != want {
		return Graph{}, fmt.Errorf("file is %d bytes, header implies %d", len(data), want)
	}
	row := unsafe.Slice((*int64)(unsafe.Pointer(&data[binHeaderSize])), h.n+1)
	col := []VID{}
	if h.arcs > 0 {
		col = unsafe.Slice((*VID)(unsafe.Pointer(&data[binHeaderSize+rowBytes])), h.arcs)
	}
	if colRange == 0 {
		colRange = h.n
	}
	maxDeg, err := validateCSRViews(row, col, h, colRange)
	if err != nil {
		return Graph{}, err
	}
	return Graph{Row: row, Col: col, DAG: h.isDAG(), maxDegree: maxDeg}, nil
}

// validateCSRViews checks the structural invariants the mining hot path
// relies on — monotone Row with the right endpoints, every Col entry in
// range — in one allocation-free sweep, and cross-checks the recorded max
// degree. Sortedness, loops and symmetry are left to Validate, which a heap
// load adds and a mapped open skips.
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
	if uint64(maxDeg) != h.maxDegree {
		return 0, fmt.Errorf("header max degree %d disagrees with data (%d)", h.maxDegree, maxDeg)
	}
	return maxDeg, nil
}

// WriteBinary serializes g in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	flags := uint32(0)
	if g.DAG {
		flags |= binFlagDAG
	}
	hdr := binHeader{
		flags:     flags,
		n:         uint64(g.NumVertices()),
		arcs:      uint64(len(g.Col)),
		maxDegree: uint64(g.MaxDegree()),
	}
	return writeCSR(w, hdr, g.Row, g.Col)
}

// writeCSR streams a padded header plus Row and Col through a 1 MB chunk
// buffer (binary.Write on a whole []int64 would transiently copy the
// entire array — unacceptable for graphs near RAM size).
func writeCSR(w io.Writer, hdr binHeader, row []int64, col []VID) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr.encode()); err != nil {
		return err
	}
	le := binary.LittleEndian
	const chunk = 1 << 20
	buf := make([]byte, 0, chunk)
	flush := func(force bool) error {
		if len(buf) < chunk && !force {
			return nil
		}
		_, err := bw.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, r := range row {
		buf = le.AppendUint64(buf, uint64(r))
		if err := flush(false); err != nil {
			return err
		}
	}
	for _, c := range col {
		buf = le.AppendUint32(buf, c)
		if err := flush(false); err != nil {
			return err
		}
	}
	if err := flush(true); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveBinary writes the binary CSR format to a file.
func SaveBinary(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteBinary(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadBinary reads the binary CSR file at path onto the heap: one buffer of
// the file's size, decoded in place by decodeCSR, then held to Validate
// (sorted, loop-free, and symmetric unless it is a DAG), which a mapped open
// does not run.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := alignedBytes(fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	g, err := decodeCSR(data, false, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// alignedBytes returns n zero bytes backed by a []uint64, so that decodeCSR's
// int64 view of Row is aligned.
func alignedBytes(n int64) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// Load picks a loader from the file extension: ".bin" uses the binary CSR
// format, anything else is parsed as a text edge list.
func Load(path string) (*Graph, error) {
	if strings.HasSuffix(path, ".bin") {
		return LoadBinary(path)
	}
	return LoadEdgeList(path)
}
