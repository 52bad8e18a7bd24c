package jobs

// Unit tests for the submit-request surface: decoder acceptance/rejection
// tables, option normalization, and the canonical graph-ref identity that
// gates batching.

import (
	"strings"
	"testing"
)

func TestParseSubmitAccepts(t *testing.T) {
	cases := []struct {
		name string
		body string
		size int
	}{
		{"named pattern", `{"graph":{"name":"g"},"pattern":{"name":"triangle"}}`, 3},
		{"family pattern", `{"graph":{"name":"g"},"pattern":{"name":"5-clique"}}`, 5},
		{"edge list", `{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`, 4},
		{"path graph", `{"graph":{"path":"web.bin","mmap":true},"pattern":{"name":"wedge"}}`, 3},
		{"full options", `{"tenant":"t","graph":{"name":"g"},"pattern":{"name":"diamond"},"options":{"workers":8,"timeout_ms":1000}}`, 4},
	}
	for _, c := range cases {
		req, pat, err := ParseSubmit([]byte(c.body))
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if pat.Size() != c.size {
			t.Errorf("%s: pattern size %d, want %d", c.name, pat.Size(), c.size)
		}
		if req.Tenant == "" {
			t.Errorf("%s: request not normalized: %+v", c.name, req)
		}
		if want := (EngineOptions{Workers: 8, TimeoutMS: 1000}); c.name == "full options" && req.Options != want {
			t.Errorf("%s: options %+v, want %+v", c.name, req.Options, want)
		}
	}
}

func TestParseSubmitRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{not json`, "bad request"},
		{"trailing data", `{"graph":{"name":"g"},"pattern":{"name":"triangle"}} junk`, "trailing data"},
		{"unknown field", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"zzz":1}`, "bad request"},
		{"no graph", `{"pattern":{"name":"triangle"}}`, "name or a path"},
		{"both graph refs", `{"graph":{"name":"g","path":"p"},"pattern":{"name":"triangle"}}`, "both"},
		{"mmap on named", `{"graph":{"name":"g","mmap":true},"pattern":{"name":"triangle"}}`, "mmap"},
		{"unknown pattern", `{"graph":{"name":"g"},"pattern":{"name":"dodecahedron"}}`, "unknown pattern"},
		{"name and edges", `{"graph":{"name":"g"},"pattern":{"name":"triangle","vertices":3}}`, "both a name and an edge list"},
		{"no edges", `{"graph":{"name":"g"},"pattern":{"vertices":4}}`, "edge list is empty"},
		{"absurd vertices", `{"graph":{"name":"g"},"pattern":{"vertices":1000000,"edges":[[0,1]]}}`, "out of range"},
		{"edge out of range", `{"graph":{"name":"g"},"pattern":{"vertices":3,"edges":[[0,5]]}}`, "out of range"},
		{"self loop", `{"graph":{"name":"g"},"pattern":{"vertices":3,"edges":[[1,1]]}}`, "self loop"},
		{"disconnected", `{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[0,1],[2,3]]}}`, "disconnected"},
		{"negative workers", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"workers":-1}}`, "workers"},
		{"absurd timeout", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"timeout_ms":99999999999}}`, "timeout_ms"},
		{"retired kernel", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"kernel":"merge"}}`, "unknown field"},
		{"retired aux", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"aux":"auto"}}`, "unknown field"},
		{"retired slice", `{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"slice":64}}`, "unknown field"},
		{"long tenant", `{"tenant":"` + strings.Repeat("x", 100) + `","graph":{"name":"g"},"pattern":{"name":"triangle"}}`, "tenant"},
		{"control chars", "{\"tenant\":\"a\\nb\",\"graph\":{\"name\":\"g\"},\"pattern\":{\"name\":\"triangle\"}}", "non-printable"},
	}
	for _, c := range cases {
		_, _, err := ParseSubmit([]byte(c.body))
		if err == nil {
			t.Errorf("%s: accepted %q", c.name, c.body)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	if _, _, err := ParseSubmit(make([]byte, MaxBodyBytes+1)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized body: %v", err)
	}
}

func TestGraphRefKeyAndDisplay(t *testing.T) {
	named := GraphRef{Name: "g"}
	plain := GraphRef{Path: "a.bin"}
	mapped := GraphRef{Path: "a.bin", Mmap: true}
	keys := map[string]bool{named.key(): true, plain.key(): true, mapped.key(): true}
	if len(keys) != 3 {
		t.Fatalf("graph-ref keys collide: %q %q %q", named.key(), plain.key(), mapped.key())
	}
	if named.key() != (GraphRef{Name: "g"}).key() {
		t.Fatal("equal refs must share a key")
	}
	if named.Display() != "g" || plain.Display() != "a.bin" {
		t.Fatalf("displays: %q %q", named.Display(), plain.Display())
	}
}
