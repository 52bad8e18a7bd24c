package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBounds(t *testing.T) {
	b := HistogramBounds()
	if len(b) != histNumBounds {
		t.Fatalf("len(bounds) = %d, want %d", len(b), histNumBounds)
	}
	if b[0] != 1 || b[len(b)-1] != 1<<histMaxLog2 {
		t.Errorf("bounds span [%d, %d], want [1, %d]", b[0], b[len(b)-1], 1<<histMaxLog2)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bounds not log2-spaced at %d: %d after %d", i, b[i], b[i-1])
		}
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11},
		{1 << 20, histNumBounds - 1},
		{1<<20 + 1, histNumBounds}, // +Inf
		{1 << 40, histNumBounds},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry(nil)
	h := r.LabeledHistogram("lat", "latency", "tenant", 0)
	h.Observe("a", 1)
	h.Observe("a", 7)
	h.Observe("a", 1<<30) // +Inf bucket
	if h.Count("a") != 3 {
		t.Errorf("count = %d, want 3", h.Count("a"))
	}
	snap := h.Snapshot()
	s := snap.Series["a"]
	if s.Sum != 8+1<<30 || s.Count != 3 {
		t.Errorf("sum/count = %d/%d", s.Sum, s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[3] != 1 || s.Buckets[histNumBounds] != 1 {
		t.Errorf("bucket placement wrong: %v", s.Buckets)
	}
	// Same name returns the same instance; a different kind under the same
	// name panics.
	if r.LabeledHistogram("lat", "ignored", "ignored", 0) != h {
		t.Error("get-or-create returned a second instance")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind name reuse did not panic")
			}
		}()
		r.LabeledCounter("lat", "", "tenant", 0)
	}()
}

func TestLabeledCardinalityBound(t *testing.T) {
	r := NewRegistry(nil)
	lc := r.LabeledCounter("c", "", "tenant", 2)
	lc.Add("a", 1)
	lc.Add("b", 1)
	lc.Add("c", 1) // over the cap: folds into the overflow label
	lc.Add("d", 1)
	lc.Add("a", 1) // existing labels keep accumulating after the cap
	vals := lc.Values()
	if vals["a"] != 2 || vals["b"] != 1 || vals[OverflowLabel] != 2 {
		t.Errorf("values = %v", vals)
	}
	if _, ok := vals["c"]; ok {
		t.Error("over-cap label minted its own series")
	}
	if lc.Get("a") != 2 || lc.Get("zzz") != 0 {
		t.Errorf("Get: a=%d zzz=%d", lc.Get("a"), lc.Get("zzz"))
	}

	lh := r.LabeledHistogram("h", "", "tenant", 2)
	lh.Observe("a", 1)
	lh.Observe("b", 1)
	lh.Observe("c", 9) // over the cap
	lh.Observe("c", 9)
	if lh.Count("a") != 1 || lh.Count(OverflowLabel) != 2 || lh.Count("c") != 0 {
		t.Errorf("counts: a=%d other=%d c=%d", lh.Count("a"), lh.Count(OverflowLabel), lh.Count("c"))
	}
}

func TestHistogramNilInert(t *testing.T) {
	var lh *LabeledHistogram
	var lc *LabeledCounter
	lh.Observe("a", 1)
	lc.Add("a", 1)
	if lh.Count("a") != 0 || lc.Get("a") != 0 || lc.Values() != nil {
		t.Error("nil receivers recorded state")
	}
	if len(lh.Snapshot().Series) != 0 {
		t.Error("nil snapshot non-empty")
	}
}

func TestHistogramJSONExportDeterministic(t *testing.T) {
	export := func() []byte {
		r := NewRegistry(NewVirtualClock())
		lh := r.LabeledHistogram("jobs.queue_wait_ms", "wait", "tenant", 4)
		lc := r.LabeledCounter("jobs.submitted", "submitted", "tenant", 4)
		for i, tenant := range []string{"b", "a", "c", "a", "b"} {
			lh.Observe(tenant, int64(i*7+1))
			lc.Add(tenant, 1)
		}
		r.LabeledHistogram("compile_ms", "", "graph", 4).Observe("default", 42)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical instrumentation sequences exported different bytes")
	}
	for _, want := range []string{
		`"histograms"`, `"labeled_counters"`, `"jobs.queue_wait_ms"`,
		`"label": "tenant"`, `"bounds"`, `"compile_ms"`,
	} {
		if !strings.Contains(string(a), want) {
			t.Errorf("export missing %s:\n%s", want, a)
		}
	}
}

// The JSON document of a registry without histogram/labeled families must
// not change shape — every golden recorded before these families existed
// stays byte-valid (the reason the schema is still flexminer-metrics/v1).
func TestMetricsJSONOmitsEmptyFamilies(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("x", 1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "histograms") || strings.Contains(out, "labeled_counters") {
		t.Errorf("empty families serialized:\n%s", out)
	}
}

func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry(nil)
	lh := r.LabeledHistogram("h", "", "tenant", 8)
	lc := r.LabeledCounter("c", "", "tenant", 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				lh.Observe(tenant, int64(i))
				lc.Add(tenant, 1)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, v := range lc.Values() {
		total += v
	}
	if total != 8000 {
		t.Errorf("labeled counter total = %d, want 8000", total)
	}
	var obsTotal int64
	for _, s := range lh.Snapshot().Series {
		obsTotal += s.Count
	}
	if obsTotal != 8000 {
		t.Errorf("histogram observation total = %d, want 8000", obsTotal)
	}
}
