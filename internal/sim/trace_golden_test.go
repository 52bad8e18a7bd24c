package sim

// Golden-file lockdown of the simulator event trace. The simulator is a
// sequential program — the coordinator resumes one PE coroutine at a time, in
// simulated-time order — so a traced simulation emits an identical event
// sequence every run — which makes the Chrome trace_event export and the
// text summary byte-comparable artifacts. The golden files pin them; any
// change to PE cycle accounting, dispatch order, or the exporters shows up
// as a diff here. Regenerate with:
//
//	go test ./internal/sim -run TraceGolden -update
//
// and review the diff like any other golden change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace artifacts")

// tracedWorkload is small enough for a reviewable golden yet exercises every
// traced path: the induced diamond plan has both intersections (SIU spans)
// and differences (SDU spans), the c-map is disabled so the merge path runs,
// and task slicing plus 4 PEs produce dispatch and retire events on several
// timelines.
func tracedWorkload(t *testing.T) (*graph.Graph, *plan.Plan, Config) {
	t.Helper()
	g := graph.ErdosRenyi(60, 180, 5)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithPEs(4).WithCMapBytes(0)
	cfg.TaskSliceElems = 16
	return g, pl, cfg
}

func runTraced(t *testing.T) (*obs.Tracer, Result) {
	t.Helper()
	g, pl, cfg := tracedWorkload(t)
	tr := obs.NewTracer(obs.NewVirtualClock(), 1<<17)
	cfg.Trace = tr
	res, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d vs %d bytes); rerun with -update and review the diff",
			path, len(got), len(want))
	}
}

func TestSimTraceGolden(t *testing.T) {
	tr, res := runTraced(t)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events; raise the test capacity", d)
	}
	// The golden run also carries the cycle-accounting postcondition: the
	// breakdown buckets of the pinned workload sum to PEs × makespan.
	if err := res.Stats.Breakdown.CheckTotal(4, res.Stats.Cycles); err != nil {
		t.Error(err)
	}
	cats := tr.Categories()
	want := map[string]bool{obs.CatSched: false, obs.CatKernel: false, obs.CatSimPE: false}
	for _, c := range cats {
		want[c] = true
	}
	for c, seen := range want {
		if !seen {
			t.Errorf("trace missing category %q (got %v)", c, cats)
		}
	}

	var chrome, summary bytes.Buffer
	if err := tr.WriteChromeJSON(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}

	// Same workload, fresh simulator: the exported bytes must be identical.
	tr2, _ := runTraced(t)
	var chrome2 bytes.Buffer
	if err := tr2.WriteChromeJSON(&chrome2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome.Bytes(), chrome2.Bytes()) {
		t.Error("two identical simulations exported different trace bytes")
	}

	checkGolden(t, filepath.Join("testdata", "golden", "diamond_er60.trace.json"), chrome.Bytes())
	checkGolden(t, filepath.Join("testdata", "golden", "diamond_er60.trace.txt"), summary.Bytes())
}

// TestSimCyclesInvariantUnderTracing is the simulator half of the
// zero-overhead contract: attaching a tracer must leave every cycle count,
// memory counter, and mined count untouched.
func TestSimCyclesInvariantUnderTracing(t *testing.T) {
	g, pl, cfg := tracedWorkload(t)
	for _, c := range []Config{cfg, DefaultConfig().WithPEs(4)} {
		plain, err := Simulate(g, pl, c)
		if err != nil {
			t.Fatal(err)
		}
		traced := c
		traced.Trace = obs.NewTracer(obs.NewVirtualClock(), 1<<17)
		withTr, err := Simulate(g, pl, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withTr.Counts, plain.Counts) {
			t.Errorf("cmap=%d: tracing changed counts: %v vs %v", c.CMapBytes, withTr.Counts, plain.Counts)
		}
		if !reflect.DeepEqual(withTr.Stats, plain.Stats) {
			t.Errorf("cmap=%d: tracing changed stats:\nwith    %+v\nwithout %+v",
				c.CMapBytes, withTr.Stats, plain.Stats)
		}
	}
}
