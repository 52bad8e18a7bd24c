package jobs

// The submit-request surface: the JSON document a tenant POSTs to /jobs and
// the decoder/validator that turns it into a runnable job. ParseSubmit is the
// hardened edge of the service — everything behind it (the queue, the batch
// compiler, the engine) may assume a well-formed request, so the decoder must
// reject malformed patterns, absurd sizes and bad graph references with a
// clean error and never panic (FuzzJobSubmitJSON locks this down).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"unicode"

	"repro/internal/pattern"
)

// Request-validation bounds. They are deliberately far above anything a
// legitimate job needs: their only purpose is to turn absurd inputs into
// clean errors before they reach allocation-sized code paths.
const (
	// MaxBodyBytes bounds the submit-request document read off the wire.
	MaxBodyBytes = 1 << 20

	maxTenantLen = 64
	maxNameLen   = 128
	maxEdges     = 256
	maxWorkers   = 1024
	maxTimeoutMS = 24 * 60 * 60 * 1000 // one day
)

// GraphRef names the input graph of a job. Exactly one of Name or Path must
// be set: Name selects a graph preregistered with the server (Config.Graphs,
// the `flexminer serve -graph` input is registered as "default"); Path opens
// a file or sharded store directory under the server's graph root
// (Config.GraphDir — path references are rejected when no root is
// configured). Mmap maps a binary CSR path zero-copy instead of loading it
// onto the heap; it is meaningless with Name.
type GraphRef struct {
	Name string `json:"name,omitempty"`
	Path string `json:"path,omitempty"`
	Mmap bool   `json:"mmap,omitempty"`
}

// key is the canonical batching identity: two jobs whose refs share a key
// resolve to the same graph.Store instance. Paths are keyed cleaned, the way
// confinePath opens them, so "g.bin" and "./g.bin" are one graph.
func (r GraphRef) key() string {
	if r.Name != "" {
		return "name\x00" + r.Name
	}
	k := "path\x00" + filepath.Clean(r.Path)
	if r.Mmap {
		k += "\x00mmap"
	}
	return k
}

// Display renders the ref for status documents.
func (r GraphRef) Display() string {
	if r.Name != "" {
		return r.Name
	}
	return r.Path
}

// PatternRef names the mined pattern: either a catalog Name ("diamond",
// "5-clique", …) or an explicit edge list over Vertices vertices labeled
// 0..Vertices-1. Induced selects vertex-induced matching semantics.
type PatternRef struct {
	Name     string   `json:"name,omitempty"`
	Vertices int      `json:"vertices,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
	Induced  bool     `json:"induced,omitempty"`
}

// EngineOptions are the per-job CPU-engine knobs. The zero value picks server
// defaults; the engine picks its set kernels and hub slicing from the input,
// as the library and CLI defaults do. Two jobs batch together only when their
// options are identical — a merged plan runs on one engine, so there is no
// way to honor two different worker counts in one batch.
type EngineOptions struct {
	// Workers is the engine thread count; 0 picks the server default.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the mining run; on expiry the job is cancelled with
	// partial results. 0 means no limit.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SubmitRequest is the POST /jobs document.
type SubmitRequest struct {
	// Tenant identifies the submitting tenant for fair scheduling; ""
	// maps to "default".
	Tenant  string        `json:"tenant,omitempty"`
	Graph   GraphRef      `json:"graph"`
	Pattern PatternRef    `json:"pattern"`
	Options EngineOptions `json:"options,omitempty"`
}

// ParseSubmit decodes and validates a submit-request document, returning the
// request (an empty tenant set to "default") and the resolved pattern. Every
// malformed input — bad JSON, unknown fields, out-of-range sizes, invalid
// edges, disconnected patterns, contradictory graph references — comes back
// as an error; ParseSubmit never panics (FuzzJobSubmitJSON).
func ParseSubmit(data []byte) (SubmitRequest, *pattern.Pattern, error) {
	var req SubmitRequest
	if len(data) > MaxBodyBytes {
		return req, nil, fmt.Errorf("jobs: request body exceeds %d bytes", MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("jobs: bad request: %w", err)
	}
	if dec.More() {
		return req, nil, fmt.Errorf("jobs: trailing data after request document")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if err := checkName("tenant", req.Tenant, maxTenantLen); err != nil {
		return req, nil, err
	}
	if err := checkGraphRef(req.Graph); err != nil {
		return req, nil, err
	}
	pat, err := resolvePattern(req.Pattern)
	if err != nil {
		return req, nil, err
	}
	if err := checkOptions(req.Options); err != nil {
		return req, nil, err
	}
	return req, pat, nil
}

// checkName bounds an identifier-ish field: printable, no whitespace beyond
// interior spaces, bounded length.
func checkName(field, s string, max int) error {
	if len(s) > max {
		return fmt.Errorf("jobs: %s longer than %d bytes", field, max)
	}
	for _, r := range s {
		if !unicode.IsPrint(r) || r == '\n' || r == '\r' {
			return fmt.Errorf("jobs: %s contains non-printable characters", field)
		}
	}
	return nil
}

func checkGraphRef(r GraphRef) error {
	switch {
	case r.Name == "" && r.Path == "":
		return fmt.Errorf("jobs: graph reference needs a name or a path")
	case r.Name != "" && r.Path != "":
		return fmt.Errorf("jobs: graph reference cannot have both a name and a path")
	case r.Name != "" && r.Mmap:
		return fmt.Errorf("jobs: mmap applies to path references only")
	case r.Name != "":
		return checkName("graph name", r.Name, maxNameLen)
	default:
		if err := checkName("graph path", r.Path, 4096); err != nil {
			return err
		}
		if strings.ContainsRune(r.Path, 0) {
			return fmt.Errorf("jobs: graph path contains NUL")
		}
		return nil
	}
}

// resolvePattern turns the pattern reference into a *pattern.Pattern,
// validating every bound before touching constructors that panic on misuse.
func resolvePattern(r PatternRef) (*pattern.Pattern, error) {
	var p *pattern.Pattern
	switch {
	case r.Name != "" && (r.Vertices != 0 || len(r.Edges) > 0):
		return nil, fmt.Errorf("jobs: pattern reference cannot have both a name and an edge list")
	case r.Name != "":
		if err := checkName("pattern name", r.Name, maxNameLen); err != nil {
			return nil, err
		}
		q, err := pattern.ByName(r.Name)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		p = q
	default:
		k := r.Vertices
		if k < 2 || k > pattern.MaxVertices {
			return nil, fmt.Errorf("jobs: pattern vertices %d out of range [2,%d]", k, pattern.MaxVertices)
		}
		if len(r.Edges) == 0 {
			return nil, fmt.Errorf("jobs: pattern edge list is empty")
		}
		if len(r.Edges) > maxEdges {
			return nil, fmt.Errorf("jobs: pattern has %d edges, limit %d", len(r.Edges), maxEdges)
		}
		for _, e := range r.Edges {
			u, v := e[0], e[1]
			if u < 0 || v < 0 || u >= k || v >= k {
				return nil, fmt.Errorf("jobs: pattern edge (%d,%d) out of range for %d vertices", u, v, k)
			}
			if u == v {
				return nil, fmt.Errorf("jobs: pattern edge (%d,%d) is a self loop", u, v)
			}
		}
		p = pattern.FromEdges(k, r.Edges)
	}
	// The compiler would reject these too, but failing at submit time gives
	// the tenant a 400 instead of a failed job.
	if p.Size() < 2 {
		return nil, fmt.Errorf("jobs: pattern %s too small to mine", p.Name())
	}
	if !p.IsConnected() {
		return nil, fmt.Errorf("jobs: pattern %s is disconnected", p.Name())
	}
	return p, nil
}

// checkOptions bounds every knob.
func checkOptions(o EngineOptions) error {
	if o.Workers < 0 || o.Workers > maxWorkers {
		return fmt.Errorf("jobs: workers %d out of range [0,%d]", o.Workers, maxWorkers)
	}
	if o.TimeoutMS < 0 || o.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("jobs: timeout_ms %d out of range [0,%d]", o.TimeoutMS, maxTimeoutMS)
	}
	return nil
}
