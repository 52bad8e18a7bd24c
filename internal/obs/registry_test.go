package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCountersAddSetGet(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("a.x", 3)
	r.Add("a.x", 4)
	r.Set("a.y", 9)
	r.Set("a.y", 2)
	if got := r.Get("a.x"); got != 7 {
		t.Errorf("Get(a.x) = %d, want 7", got)
	}
	if got := r.Get("a.y"); got != 2 {
		t.Errorf("Get(a.y) = %d, want 2", got)
	}
	if got := r.Get("absent"); got != 0 {
		t.Errorf("Get(absent) = %d, want 0", got)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "a.x" || names[1] != "a.y" {
		t.Errorf("Names() = %v, want [a.x a.y]", names)
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Tasks":                        "tasks",
		"SetOpIterations":              "set_op_iterations",
		"LeafCountsSkippedMaterialize": "leaf_counts_skipped_materialize",
		"SIUIters":                     "siu_iters",
		"SDUIters":                     "sdu_iters",
		"DRAMAccesses":                 "dram_accesses",
		"NoCRequests":                  "no_c_requests",
		"L1Hits":                       "l1_hits",
		"L2Misses":                     "l2_misses",
		"CMap":                         "c_map",
		"X":                            "x",
		"":                             "",
	}
	for in, want := range cases {
		if got := SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

type innerStats struct {
	Lookups int64
	Hits    int64
}

type fakeStats struct {
	Tasks      int64
	SIUIters   int64
	Seconds    float64 // must be skipped: wall-clock measurement
	Name       string  // must be skipped: not a metric
	Flag       bool
	Inner      innerStats
	unexported int64 // must be skipped
}

func TestAddStatsReflection(t *testing.T) {
	r := NewRegistry(nil)
	s := fakeStats{Tasks: 5, SIUIters: 7, Seconds: 1.25, Flag: true,
		Inner: innerStats{Lookups: 11, Hits: 3}, unexported: 99}
	AddStats(r, "fake", &s)
	AddStats(r, "fake", s) // value and pointer forms both work; accumulates
	want := map[string]int64{
		"fake.tasks":         10,
		"fake.siu_iters":     14,
		"fake.flag":          2,
		"fake.inner.lookups": 22,
		"fake.inner.hits":    6,
	}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("registered %v, want exactly %d counters", names, len(want))
	}
	for name, v := range want {
		if got := r.Get(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

func TestStatsMetricNames(t *testing.T) {
	got := StatsMetricNames("p", fakeStats{})
	want := []string{"p.flag", "p.inner.hits", "p.inner.lookups", "p.siu_iters", "p.tasks"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestAddStatsNilPointerAndNonStruct(t *testing.T) {
	r := NewRegistry(nil)
	AddStats(r, "nil", (*fakeStats)(nil)) // no-op, no panic
	if n := r.Names(); len(n) != 0 {
		t.Errorf("nil pointer registered %v", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-struct input did not panic")
		}
	}()
	AddStats(r, "bad", 42)
}

func TestPhasesVirtualClockDeterminism(t *testing.T) {
	mk := func() []byte {
		r := NewRegistry(NewVirtualClock())
		end := r.StartPhase("plan")
		r.Add("x", 1)
		end()
		end() // double close keeps the first interval
		endMine := r.StartPhase("mine")
		endMine()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatalf("virtual-clock exports differ:\n%s\nvs\n%s", a, b)
	}
	var doc struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Phases   []Phase          `json:"phases"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != MetricsSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, MetricsSchema)
	}
	if len(doc.Phases) != 2 || doc.Phases[0].Name != "plan" || doc.Phases[1].Name != "mine" {
		t.Fatalf("phases = %+v", doc.Phases)
	}
	p := doc.Phases[0]
	if p.Start != 1 || p.End != 2 || p.Dur != 1 {
		t.Errorf("plan phase = %+v, want start=1 end=2 dur=1", p)
	}
}

func TestPhasesOpenReported(t *testing.T) {
	r := NewRegistry(nil)
	_ = r.StartPhase("never-closed")
	ph := r.Phases()
	if len(ph) != 1 || ph[0].End != -1 {
		t.Fatalf("open phase = %+v, want End=-1", ph)
	}
}

func TestWriteJSONSortedAndStable(t *testing.T) {
	r := NewRegistry(NewVirtualClock())
	r.Add("z.last", 1)
	r.Add("a.first", 2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("export missing trailing newline")
	}
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}
