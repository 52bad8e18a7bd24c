package bench

// Golden lockdown of two `experiments -metrics` artifacts, `table2` and
// `fig14 fig15 fig16`, in -quick mode: their registered counters are
// schedule-invariant (Table II's engine counters) or model time (the
// simulator's cycles and traffic), and the datasets are seeded, so the
// exported JSON is byte-identical across runs and machines. Each test mirrors
// exactly what cmd/experiments registers (one phase per experiment, the same
// keys) and pins the bytes. Regenerate with:
//
//	go test ./internal/bench -run MetricsGolden -update
//
// after any deliberate change to the rows, core.Stats, the cycle model, or
// the JSON schema.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics artifact")

func TestTable2MetricsGolden(t *testing.T) {
	rows, err := Table2(true)
	if err != nil {
		t.Fatal(err)
	}
	export := func() []byte {
		reg := obs.NewRegistry(obs.NewVirtualClock())
		end := reg.StartPhase("table2")
		for i := range rows {
			r := &rows[i]
			obs.AddStats(reg, fmt.Sprintf("table2.%s.%s", r.App, r.Dataset), r)
		}
		end()
		return writeJSON(t, reg)
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same rows differ — registry export is nondeterministic")
	}
	checkGolden(t, "table2_quick.metrics.json", a)
}

// TestSimFiguresMetricsGolden pins `experiments -quick fig14 fig15 fig16
// -metrics`: the simulator's cycles at every c-map size (none, 4 kB,
// unlimited) and PE count (1, 4, 16) the quick sweeps run, and its NoC and
// DRAM traffic. benchmark/golden.json checks the 8 kB configuration only.
func TestSimFiguresMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry(nil)
	phase := func(name string, register func() error) {
		end := reg.StartPhase(name)
		defer end()
		if err := register(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	phase("fig14", func() error {
		rows, err := Fig14(true)
		for _, r := range rows {
			for size, cyc := range r.Cycles {
				reg.Set(fmt.Sprintf("fig14.%s.%s.cycles.%d", r.App, r.Dataset, size), cyc)
			}
		}
		return err
	})
	phase("fig15", func() error {
		rows, err := Fig15(true)
		for _, r := range rows {
			for pe, cyc := range r.Cycles {
				reg.Set(fmt.Sprintf("fig15.%s.%s.cycles.%d", r.App, r.Dataset, pe), cyc)
			}
		}
		return err
	})
	phase("fig16", func() error {
		rows, err := Fig16(true)
		for _, r := range rows {
			for size, n := range r.NoC {
				reg.Set(fmt.Sprintf("fig16.%s.%s.noc.%d", r.App, r.Dataset, size), n)
			}
			for size, n := range r.DRAM {
				reg.Set(fmt.Sprintf("fig16.%s.%s.dram.%d", r.App, r.Dataset, size), n)
			}
		}
		return err
	})
	checkGolden(t, "sim_figures_quick.metrics.json", writeJSON(t, reg))
}

func writeJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got with testdata/golden/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Errorf("metrics drifted from golden %s; if the change is intended, rerun with -update and review", path)
	}
}
