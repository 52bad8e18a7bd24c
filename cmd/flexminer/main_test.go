package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flexminer "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestRunRejectsFlagMistakesBeforeLoading: every flag combination run can
// reject from the flags alone is rejected before the input is opened — the
// -graph path does not exist, so a run that got as far as loading would fail
// with the file error instead of its own message.
func TestRunRejectsFlagMistakesBeforeLoading(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nonexistent.bin")
	for _, c := range []struct {
		name string
		o    options
		want string
	}{
		{"bad engine", options{graphPath: missing, app: "TC", engine: "gpu"}, `unknown engine "gpu"`},
		{"app with pattern", options{graphPath: missing, app: "TC", patName: "diamond", engine: "cpu"}, "-app and -pattern are mutually exclusive"},
		{"timeseries on cpu", options{graphPath: missing, app: "TC", engine: "cpu", timeseriesPath: filepath.Join(t.TempDir(), "ts.json")}, "-timeseries samples on sim cycles"},
		{"trailing text on app", options{graphPath: missing, app: "4-CLfoo", engine: "cpu"}, `unknown application "4-CLfoo"; want TC, k-CL`},
		// The control: with nothing wrong in the flags, the file error is what surfaces.
		{"missing file", options{graphPath: missing, app: "TC", engine: "cpu"}, "no such file"},
	} {
		err := run(c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestRunFailsWhenAnArtifactWriteFails: run writes the artifacts in a defer,
// so that a timed-out run still leaves them; a write that fails there is
// run's error, so the command exits 1 instead of 0 after printing it.
func TestRunFailsWhenAnArtifactWriteFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this host")
	}
	bin := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveBinary(bin, graph.ChungLu(200, 1200, 2.3, 7)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag string
		o    options
	}{
		{"-metrics", options{engine: "cpu", metricsPath: "/dev/full"}},
		{"-trace", options{engine: "cpu", tracePath: "/dev/full"}},
		{"-timeseries", options{engine: "sim", pes: 4, cmapBytes: 8 << 10, timeseriesPath: "/dev/full", sampleWindow: 4096}},
	} {
		c.o.graphPath, c.o.patName = bin, "triangle"
		if err := run(c.o); err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Errorf("%s /dev/full: run = %v, want the write error", c.flag, err)
		}
	}
}

// runCounters runs o on the CPU engine with a -metrics artifact in a fresh
// directory and returns the artifact's counters: cpu.count.<i> and cpu.<stat>.
func runCounters(t *testing.T, o options) map[string]int64 {
	t.Helper()
	o.engine, o.metricsPath = "cpu", filepath.Join(t.TempDir(), "m.json")
	if err := run(o); err != nil {
		t.Fatalf("run(%+v): %v", o, err)
	}
	f, err := os.Open(o.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := obs.ReadMetricsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return m.Counters
}

// TestAppAndPatternSpellingsAgree: -app goes through the one workload grammar,
// so the paper's SL-4cycle, the catalog's SL-4-cycle and -pattern 4-cycle are
// the same workload and mine the same count.
func TestAppAndPatternSpellingsAgree(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveBinary(bin, graph.ChungLu(200, 1200, 2.3, 7)); err != nil {
		t.Fatal(err)
	}
	count := func(o options) int64 {
		t.Helper()
		o.graphPath = bin
		return runCounters(t, o)["cpu.count.0"]
	}
	want := count(options{patName: "4-cycle"})
	if want == 0 {
		t.Fatal("the generated graph holds no 4-cycle; the comparison would be vacuous")
	}
	for _, app := range []string{"SL-4cycle", "SL-4-cycle"} {
		if got := count(options{app: app}); got != want {
			t.Errorf("-app %s mined %d, -pattern 4-cycle mined %d", app, got, want)
		}
	}
}

// TestEngineFlagDefaultsAreTheFacadeDefault: with no engine flag given the CLI
// runs what a library caller's zero-value MineOptions runs — one configuration,
// aux rows included — so the two report identical Stats on a plan whose rows are
// live (the vertex-induced 4-path).
func TestEngineFlagDefaultsAreTheFacadeDefault(t *testing.T) {
	fs := flag.NewFlagSet("flexminer", flag.ContinueOnError)
	engine := engineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cpu, err := engine()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.ChungLu(200, 1200, 2.3, 7)
	path, err := flexminer.Patterns.ByName("4-path")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := flexminer.Compile(path, flexminer.CompileOptions{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := flexminer.Mine(g, pl, cpu)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := flexminer.Mine(g, pl, flexminer.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Stats != lib.Stats || cli.Counts[0] != lib.Counts[0] {
		t.Errorf("CLI defaults mined %d with %+v, the zero-value MineOptions %d with %+v", cli.Counts[0], cli.Stats, lib.Counts[0], lib.Stats)
	}
	if s := lib.Stats; s.AuxBuilt == 0 || s.AuxReused <= s.AuxBuilt {
		t.Errorf("default run built %d aux rows and reused %d; want reuse > build > 0", s.AuxBuilt, s.AuxReused)
	}
}

// TestWorkProxyGates is CI's machine-independent gate on the lowering passes
// (DESIGN.md decision 18): a lowering change that turns a mechanism off moves no
// count, only the clock — and one exact work proxy, which this holds through the
// CLI's own run and its -metrics artifact on a 512-vertex RMAT graph, symmetric
// and oriented. Every row mines the merge-only count under the default; its gate
// is the inequality the mechanism's PR measured (figures in the DESIGN decisions).
func TestWorkProxyGates(t *testing.T) {
	dir := t.TempDir()
	sym, dag := filepath.Join(dir, "g.bin"), filepath.Join(dir, "dag.bin")
	g := graph.RMAT(9, 4500, 0.57, 0.19, 0.19, 7)
	for path, st := range map[string]*graph.Graph{sym: g, dag: g.Orient()} {
		if err := graph.SaveBinary(path, st); err != nil {
			t.Fatal(err)
		}
	}
	type counters = map[string]int64
	type gate struct {
		what string
		ok   func(auto, merge counters) bool
	}
	searchFree := gate{"searches < candidates/100 (decision 20)", func(a, _ counters) bool {
		return a["cpu.searches"] < a["cpu.candidates"]/100
	}}
	lastLevels := gate{"the last two levels are counted, merge-only enumerates them (decision 22)", func(a, m counters) bool {
		return a["cpu.closed_forms"] > 0 && a["cpu.extensions"] < 10000 && m["cpu.closed_forms"] == 0 && m["cpu.extensions"] > 10*a["cpu.extensions"]
	}}
	// Before a bounded count-only scan stopped at its bound, and before a c-map mark
	// did, each searched for it: 4,042 searches for the triangle here (4,182 in hub
	// slices).
	scansStop := func(parent int64) gate {
		return gate{"bounded scans and marks stop at their bound: under a third of the searches before (decisions 20, 25)", func(a, _ counters) bool {
			return 3*a["cpu.searches"] < parent
		}}
	}
	// A symmetric heap graph mines SL-house and the diamond in (degree, ID) order; the
	// mapped file keeps the generator's IDs, hubs first, as the heap graph did before
	// decision 28.
	degreeOrder := func(o options, num, den int64) gate {
		o.useMmap = true
		return gate{fmt.Sprintf("mined in degree order: dense accesses under %d/%d of the mapped file's (decision 28)", num, den), func(a, _ counters) bool {
			given := runCounters(t, o)
			t.Logf("%s: %d dense accesses in degree order, %d as given", o.app+o.patName, a["cpu.bitmap_probes"], given["cpu.bitmap_probes"])
			return den*a["cpu.bitmap_probes"] < num*given["cpu.bitmap_probes"]
		}}
	}
	// An edge's common-neighbour count is read from a heap graph's arc index, one dense
	// access: SL-house's walk of the roof's list F and the
	// diamond's m per edge. 1,024,658 and 27,924 dense accesses here on 2 threads; a
	// -mmap run has no index and scans, as at decision 28.
	arcReads := func(parent int64) gate {
		return gate{"edges' common neighbours are arc memo reads: under three fifths of the dense accesses before (decision 29)", func(a, _ counters) bool {
			return 5*a["cpu.bitmap_probes"] < 3*parent
		}}
	}
	// The tailed triangle sums v0's index slots instead of scanning per edge (decision
	// 31), a hub's first slice for all of its row: 30,942 dense accesses here on 2
	// threads, 18,108 with hub slicing off, against 116,253 and 103,419 on the mapped
	// file, which has no index and walks. With every slice walking, the heap run read
	// 117,523: the hubs' slices walk in degree order.
	halfSums := gate{"v0's row is summed from the index: dense accesses under a third of the mapped file's (decision 31)", func(a, _ counters) bool {
		mapped := runCounters(t, options{graphPath: sym, patName: "tailed-triangle", useMmap: true})
		t.Logf("tailed-triangle: %d dense accesses on the heap, %d mapped", a["cpu.bitmap_probes"], mapped["cpu.bitmap_probes"])
		return 3*a["cpu.bitmap_probes"] < mapped["cpu.bitmap_probes"]
	}}
	// Before a bounded scan stopped at its bound, the tailed triangle searched for it
	// 6,036 times here; now it scans nothing.
	noScan := gate{"v0's row is summed, nothing scanned: no search, against 6,036 before (decisions 25, 31)", func(a, _ counters) bool {
		return a["cpu.searches"] == 0
	}}
	counts := map[string]int64{}
	for _, c := range []struct {
		name  string
		o     options
		gates []gate
	}{
		{"induced 4-path", options{graphPath: sym, patName: "4-path", induced: true}, []gate{
			{"lowering keeps the spec and a row is reused more often than built (decision 14)", func(a, m counters) bool {
				return a["cpu.aux_built"] > 0 && a["cpu.aux_reused"] > a["cpu.aux_built"] && m["cpu.aux_built"] == 0
			}},
		}},
		// Before the square side was gathered from counters kept per v0, each edge
		// scanned the row of every neighbour of v0: 8,619,457 dense accesses here at
		// the parent of decision 27 (8,606,623 on one thread), 4,963,833 after it.
		// Before the gather went list-free, each edge also copied v0's row, searched it
		// for v1 and probed every candidate for the factor, and every reset walked the
		// rows again: 3,380 searches and those 4,963,833 accesses; 594 and 4,571,711 after.
		{"SL-house", options{graphPath: sym, app: "SL-house"}, []gate{
			searchFree,
			{"the roof is a factor: one closed form per edge, a quarter of the extensions (decision 23)", func(a, m counters) bool {
				return a["cpu.closed_forms"] > 0 && m["cpu.closed_forms"] == 0 && 4*a["cpu.extensions"] < m["cpu.extensions"]
			}},
			{"the square side is hoisted: dense accesses under two thirds of the parent's (decision 27)", func(a, _ counters) bool {
				return 3*a["cpu.bitmap_probes"] < 2*8_619_457
			}},
			{"the gather takes no list: under a fifth of the searches and 95 % of the dense accesses before (decisions 24, 27)", func(a, _ counters) bool {
				return 5*a["cpu.searches"] < 3_380 && 20*a["cpu.bitmap_probes"] < 19*4_963_833
			}},
			degreeOrder(options{graphPath: sym, app: "SL-house"}, 4, 5),
			arcReads(3_536_259),
		}},
		// Measured at decision 28 on 2 threads: SL-house 3,536,259 dense accesses in
		// degree order against 4,571,711 as given, the diamond 91,990 against 192,982.
		{"diamond", options{graphPath: sym, patName: "diamond"}, []gate{degreeOrder(options{graphPath: sym, patName: "diamond"}, 3, 5), arcReads(91_990)}},
		{"tailed-triangle", options{graphPath: sym, patName: "tailed-triangle"}, []gate{searchFree, noScan, halfSums}},
		{"triangle", options{graphPath: sym, patName: "triangle"}, []gate{scansStop(4042)}},
		{"4-star", options{graphPath: sym, patName: "4-star"}, []gate{lastLevels}},
		{"4-path", options{graphPath: sym, patName: "4-path"}, []gate{lastLevels}},
		// The c-map walk scanned one row per pair of v0's neighbours: 1,417,060 dense
		// accesses and 30,303 extensions here at the parent of decision 24 (30,373 in
		// hub slices), against 244,298 and 512 (278,528 and 582: a slice re-sweeps its
		// head). Each reset walked the swept rows a second time until a 512-vertex
		// array, 32 lines, was cleared instead: 278,528 dense accesses before, 150,369 after.
		{"4-cycle", options{graphPath: sym, patName: "4-cycle"}, []gate{
			{"the twins are swept from the far corner: one extension per task, a quarter of the c-map walk's dense accesses (decision 24)", func(a, m counters) bool {
				return a["cpu.closed_forms"] > 0 && m["cpu.closed_forms"] == 0 && 4*a["cpu.extensions"] < m["cpu.extensions"] && 4*a["cpu.bitmap_probes"] < 1_417_060
			}},
			{"the counters are reset by one clear, a line an access: under three fifths of the dense accesses of the second walk (decision 24)", func(a, _ counters) bool {
				return 5*a["cpu.bitmap_probes"] < 3*278_528
			}},
		}},
		{"4-CL", options{graphPath: dag, app: "4-CL"}, []gate{
			{"the clique levels run on local rows, under two dense accesses per candidate (decision 21)", func(a, m counters) bool {
				return a["cpu.local_rows"] > 0 && a["cpu.bitmap_probes"] < 2*a["cpu.candidates"] && m["cpu.local_rows"] == 0 && m["cpu.bitmap_probes"] == 0
			}},
			{"no clique level is a closed form", func(a, _ counters) bool { return a["cpu.closed_forms"] == 0 }},
		}},
		{"TC", options{graphPath: dag, app: "TC"}, []gate{
			{"no level roots in adj(v0) twice: no local row", func(a, _ counters) bool { return a["cpu.local_rows"] == 0 }},
		}},
		{"4-clique", options{graphPath: sym, patName: "4-clique"}, nil},
	} {
		auto := runCounters(t, c.o)
		c.o.cpu.Kernel = core.KernelMergeOnly
		merge := runCounters(t, c.o)
		counts[c.name] = auto["cpu.count.0"]
		if auto["cpu.count.0"] == 0 || auto["cpu.count.0"] != merge["cpu.count.0"] {
			t.Errorf("%s: default mined %d, -kernel merge %d; want equal and not 0", c.name, auto["cpu.count.0"], merge["cpu.count.0"])
		}
		for _, g := range c.gates {
			if !g.ok(auto, merge) {
				t.Errorf("%s: %s — does not hold\n  default %v\n  merge   %v", c.name, g.what, auto, merge)
			}
		}
	}
	if counts["4-CL"] != counts["4-clique"] {
		t.Errorf("the oriented plan mined %d 4-cliques, the symmetric one %d", counts["4-CL"], counts["4-clique"])
	}
}
