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

// Binary CSR layout. Version 2 (the current writer output) is mmap-friendly:
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
// of the whole file — OpenMapped views both arrays zero-copy. MaxDegree is
// recorded so opening does not need to touch every Row page just to size
// engine scratch buffers. Version 1 (unaligned 25-byte header, no recorded
// max degree) is still read by ReadBinary/LoadBinary but cannot be mapped.
const (
	binMagic      = uint32(0xF1E7A11E) // "FlexMiner graph" magic
	binVersion    = 2
	binHeaderSize = 4096

	binFlagDAG   = 1 << 0
	binFlagShard = 1 << 1
)

// maxBinVertices/maxBinArcs bound header-declared sizes so a corrupt or
// malicious header cannot drive huge allocations before the (chunked) reads
// detect truncation.
const (
	maxBinVertices = 1 << 40
	maxBinArcs     = 1 << 42
)

// binHeader is the decoded fixed part of a binary CSR file.
type binHeader struct {
	version   uint32
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
	le.PutUint32(buf[4:], h.version)
	le.PutUint32(buf[8:], h.flags)
	le.PutUint64(buf[16:], h.n)
	le.PutUint64(buf[24:], h.arcs)
	le.PutUint64(buf[32:], h.maxDegree)
	return buf
}

// decodeBinHeader parses and sanity-checks the fixed header fields (both
// versions share the first 12 bytes up to where v1 diverges).
func decodeBinHeader(br io.Reader) (binHeader, error) {
	var h binHeader
	le := binary.LittleEndian
	var pre [8]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return h, fmt.Errorf("graph: short binary CSR header: %w", err)
	}
	if le.Uint32(pre[0:]) != binMagic {
		return h, errors.New("graph: bad magic in binary CSR file")
	}
	h.version = le.Uint32(pre[4:])
	switch h.version {
	case 1:
		var rest [17]byte // isDAG byte + n + arcs
		if _, err := io.ReadFull(br, rest[:]); err != nil {
			return h, fmt.Errorf("graph: short v1 header: %w", err)
		}
		if rest[0] != 0 {
			h.flags = binFlagDAG
		}
		h.n = le.Uint64(rest[1:])
		h.arcs = le.Uint64(rest[9:])
	case binVersion:
		var rest [binHeaderSize - 8]byte
		if _, err := io.ReadFull(br, rest[:]); err != nil {
			return h, fmt.Errorf("graph: short v2 header: %w", err)
		}
		h.flags = le.Uint32(rest[0:])
		h.n = le.Uint64(rest[8:])
		h.arcs = le.Uint64(rest[16:])
		h.maxDegree = le.Uint64(rest[24:])
	default:
		return h, fmt.Errorf("graph: unsupported binary version %d", h.version)
	}
	if h.n > maxBinVertices {
		return h, fmt.Errorf("graph: implausible vertex count %d in header", h.n)
	}
	if h.arcs > maxBinArcs {
		return h, fmt.Errorf("graph: implausible arc count %d in header", h.arcs)
	}
	if h.maxDegree > h.arcs {
		return h, fmt.Errorf("graph: header max degree %d exceeds arc count %d", h.maxDegree, h.arcs)
	}
	return h, nil
}

// WriteBinary serializes g in the binary CSR format (version 2).
func WriteBinary(w io.Writer, g *Graph) error {
	flags := uint32(0)
	if g.DAG {
		flags |= binFlagDAG
	}
	hdr := binHeader{
		version:   binVersion,
		flags:     flags,
		n:         uint64(g.NumVertices()),
		arcs:      uint64(len(g.Col)),
		maxDegree: uint64(g.MaxDegree()),
	}
	return writeCSR(w, hdr, g.Row, g.Col)
}

// ioChunkBytes is the buffer size of the chunked binary encoder/decoder: big
// enough to amortize syscalls, small enough that corrupt headers cannot force
// large up-front allocations.
const ioChunkBytes = 1 << 20

// writeCSR streams a padded v2 header plus Row and Col through a fixed-size
// chunk buffer (binary.Write on a whole []int64 would transiently copy the
// entire array — unacceptable for graphs near RAM size).
func writeCSR(w io.Writer, hdr binHeader, row []int64, col []VID) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr.encode()); err != nil {
		return err
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, ioChunkBytes)
	flush := func(force bool) error {
		if len(buf) < ioChunkBytes && !force {
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

// ReadBinary deserializes a graph written by WriteBinary (v1 or v2). Reads
// are chunked and validated incrementally, so truncated or bit-flipped input
// errors out early instead of panicking or allocating header-declared sizes
// it never receives.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := decodeBinHeader(br)
	if err != nil {
		return nil, err
	}
	if h.isShard() {
		return nil, errors.New("graph: file is a shard slice, not a whole graph (use OpenSharded on its directory)")
	}
	row, err := readRowChunked(br, h.n, h.arcs)
	if err != nil {
		return nil, err
	}
	col, err := readColChunked(br, h.arcs, h.n)
	if err != nil {
		return nil, err
	}
	g := &Graph{Row: row, Col: col, DAG: h.isDAG()}
	g.recomputeMaxDegree()
	if h.version >= binVersion && g.maxDegree != int(h.maxDegree) {
		return nil, fmt.Errorf("graph: header max degree %d disagrees with data (%d)", h.maxDegree, g.maxDegree)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readRowChunked reads the n+1 Row entries in bounded batches, checking
// monotonicity and the [0, arcs] range as it goes.
func readRowChunked(br io.Reader, n, arcs uint64) ([]int64, error) {
	const entries = ioChunkBytes / 8
	row := make([]int64, 0, min64(n+1, entries))
	buf := make([]byte, 0, ioChunkBytes)
	le := binary.LittleEndian
	prev := int64(0)
	for read := uint64(0); read < n+1; {
		batch := min64(n+1-read, entries)
		buf = buf[:batch*8]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: truncated Row array: %w", err)
		}
		for i := uint64(0); i < batch; i++ {
			v := int64(le.Uint64(buf[i*8:]))
			if read+i == 0 && v != 0 {
				return nil, fmt.Errorf("graph: Row[0] = %d, want 0", v)
			}
			if v < prev {
				return nil, fmt.Errorf("graph: Row not monotone at entry %d", read+i)
			}
			if uint64(v) > arcs {
				return nil, fmt.Errorf("graph: Row entry %d exceeds arc count %d", v, arcs)
			}
			prev = v
			row = append(row, v)
		}
		read += batch
	}
	if uint64(prev) != arcs {
		return nil, fmt.Errorf("graph: Row[%d] = %d, want arc count %d", n, prev, arcs)
	}
	return row, nil
}

// readColChunked reads the arcs Col entries in bounded batches, checking each
// neighbor ID is below the vertex count.
func readColChunked(br io.Reader, arcs, n uint64) ([]VID, error) {
	const entries = ioChunkBytes / 4
	col := make([]VID, 0, min64(arcs, entries))
	buf := make([]byte, 0, ioChunkBytes)
	le := binary.LittleEndian
	for read := uint64(0); read < arcs; {
		batch := min64(arcs-read, entries)
		buf = buf[:batch*4]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: truncated Col array: %w", err)
		}
		for i := uint64(0); i < batch; i++ {
			v := le.Uint32(buf[i*4:])
			if uint64(v) >= n {
				return nil, fmt.Errorf("graph: Col entry %d out of range for %d vertices", v, n)
			}
			col = append(col, v)
		}
		read += batch
	}
	return col, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
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

// LoadBinary reads the binary CSR format from a file.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// Load picks a loader from the file extension: ".bin" uses the binary CSR
// format, anything else is parsed as a text edge list.
func Load(path string) (*Graph, error) {
	if strings.HasSuffix(path, ".bin") {
		return LoadBinary(path)
	}
	return LoadEdgeList(path)
}
