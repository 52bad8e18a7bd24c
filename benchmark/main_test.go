package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesTables keeps BENCHMARK.json and the tables in this package
// in step: same workloads with the same reasons, same metrics with the same
// units, directions and bounds, in the same order.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || (bounded && m.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %q: name, unit or direction outside the contract's limits", kind, m.Name)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			if seen[d.Name] {
				t.Errorf("metric %q is named twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestQuickRuns runs every workload of BENCHMARK.json in -quick mode, once
// untraced and once traced, and checks that each run is correct (which
// includes golden.json for seed 1 and the brute-force cross-check) and emits
// exactly the metrics BENCHMARK.json names for that mode, each with its unit
// and a finite value.
func TestQuickRuns(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(config{workload: w.Name, seed: 1, seconds: 0.15, trace: traced, quick: true, dir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Phases["measure"].Failed != 0 || rec.Phases["measure"].Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v phases=%+v errors=%v", w.Name, traced, rec.Correct, rec.Phases, rec.Errors)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is not finite", w.Name, m.Name)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if f := rec.Metrics["trace.explained_frac"].Value; f < 0.9 {
					t.Errorf("%s: trace.explained_frac = %v, want at least 0.9", w.Name, f)
				}
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
			checkResultLine(t, rec)
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if err != nil || len(leftovers) > 0 {
		t.Errorf("scratch directories left behind: %v %v", leftovers, err)
	}
}

// checkResultLine checks the contract's last line: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func checkResultLine(t *testing.T, rec *record) {
	t.Helper()
	var buf bytes.Buffer
	if err := printRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(last))
	}
}

// TestCompare checks the three verdicts of the compare subcommand: identical
// runs agree, a timing beyond its bound fails, a differing count fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base, err := runOne(config{workload: "sim", seed: 1, seconds: 0.05, quick: true, dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, edit func(r *record)) string {
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		path := filepath.Join(dir, name)
		if err := writeRecords(path, []*record{&r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("a.json", func(*record) {})
	slow := write("slow.json", func(r *record) {
		m := r.Metrics["op_p50_ms"]
		m.Value *= 2
		r.Metrics["op_p50_ms"] = m
	})
	wrong := write("wrong.json", func(r *record) { r.Counts["SL-4cycle.cycles"]++ })
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {wrong, 1}} {
		var out bytes.Buffer
		if got := run([]string{"compare", same, c.b}, &out, &out); got != c.want {
			t.Errorf("compare a.json %s exited %d, want %d\n%s", filepath.Base(c.b), got, c.want, out.String())
		}
	}
}
