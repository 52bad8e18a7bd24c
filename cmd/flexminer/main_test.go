package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flexminer "repro"
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

// TestAppAndPatternSpellingsAgree: -app goes through the one workload grammar,
// so the paper's SL-4cycle, the catalog's SL-4-cycle and -pattern 4-cycle are
// the same workload and mine the same count.
func TestAppAndPatternSpellingsAgree(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := graph.SaveBinary(bin, graph.ChungLu(200, 1200, 2.3, 7)); err != nil {
		t.Fatal(err)
	}
	count := func(o options) int64 {
		t.Helper()
		o.graphPath, o.engine, o.metricsPath = bin, "cpu", filepath.Join(dir, "m.json")
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
		return m.Counters["cpu.count.0"]
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
