package jobs

// FuzzJobSubmitJSON locks down the hardened edge of the service: no byte
// sequence POSTed at /jobs may panic the decoder. Malformed JSON, absurd
// sizes, bad graph references and degenerate patterns must all come back as
// clean errors, and anything the decoder accepts must be internally
// consistent (a usable pattern, a normalized request that re-parses to
// itself).

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/pattern"
)

func FuzzJobSubmitJSON(f *testing.F) {
	seeds := []string{
		// The happy paths.
		`{"tenant":"alice","graph":{"name":"default"},"pattern":{"name":"triangle"}}`,
		`{"graph":{"path":"web.bin","mmap":true},"pattern":{"name":"diamond"},"options":{"workers":4,"timeout_ms":5000}}`,
		`{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"induced":true}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"5-clique"}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"wedge"},"options":{}}`,
		// The documented failure modes.
		`{"graph":{},"pattern":{"name":"triangle"}}`,
		`{"graph":{"name":"g","path":"also.bin"},"pattern":{"name":"triangle"}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"no-such-pattern"}}`,
		`{"graph":{"name":"g"},"pattern":{"vertices":99,"edges":[[0,1]]}}`,
		`{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[0,7]]}}`,
		`{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[1,1]]}}`,
		`{"graph":{"name":"g"},"pattern":{"vertices":4,"edges":[[0,1],[2,3]]}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"workers":-1}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"timeout_ms":-5}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"kernel":"merge"}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"},"options":{"slice":64}}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"},"unknown_field":1}`,
		`{"graph":{"name":"g"},"pattern":{"name":"triangle"}} trailing`,
		`{not json`,
		``,
		`null`,
		`[]`,
		"{\"tenant\":\"\u0000\",\"graph\":{\"name\":\"g\"},\"pattern\":{\"name\":\"wedge\"}}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, pat, err := ParseSubmit(data)
		if err != nil {
			return
		}
		// Accepted requests must be fully usable downstream.
		if pat == nil {
			t.Fatal("accepted request with nil pattern")
		}
		if pat.Size() < 2 || pat.Size() > pattern.MaxVertices {
			t.Fatalf("accepted pattern of size %d", pat.Size())
		}
		if !pat.IsConnected() {
			t.Fatal("accepted disconnected pattern")
		}
		if req.Tenant == "" {
			t.Fatal("accepted request with empty tenant after normalization")
		}
		if (req.Graph.Name == "") == (req.Graph.Path == "") {
			t.Fatalf("accepted ambiguous graph ref %+v", req.Graph)
		}
		// Normalization is a fixed point: the normalized request re-parses to
		// itself, so equal-meaning jobs compare equal for batching.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := ParseSubmit(enc)
		if err != nil {
			t.Fatalf("normalized request %s rejected: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("normalized request is not a fixed point (err %v):\n first %s\nsecond %s", err, enc, enc2)
		}
	})
}
