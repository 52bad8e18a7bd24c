package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSamplerWindows(t *testing.T) {
	s := NewSampler(10)
	if !s.Enabled() || s.Window() != 10 {
		t.Fatalf("Enabled=%v Window=%d", s.Enabled(), s.Window())
	}
	if s.Due(9) {
		t.Error("due before the first boundary")
	}
	// Crossing several boundaries at once: the driver records one sample per
	// boundary, each stamped at the boundary, not at the driver's clock.
	for s.Due(35) {
		s.Record(map[string]int64{"x": 1})
	}
	got := s.Samples()
	if len(got) != 3 || got[0].T != 10 || got[1].T != 20 || got[2].T != 30 {
		t.Fatalf("samples %+v, want T=10,20,30", got)
	}
	s.RecordFinal(37, map[string]int64{"x": 2})
	if got := s.Samples(); len(got) != 4 || got[3].T != 37 {
		t.Fatalf("final sample %+v, want T=37", got)
	}
	// A final at or before the last recorded sample is dropped, so a run
	// ending exactly on a boundary doesn't emit a duplicate.
	s.RecordFinal(37, map[string]int64{"x": 3})
	if got := s.Samples(); len(got) != 4 {
		t.Fatalf("duplicate terminal sample recorded: %+v", got)
	}
}

func TestSamplerClampsWindow(t *testing.T) {
	if w := NewSampler(0).Window(); w != 1 {
		t.Errorf("window 0 clamped to %d, want 1", w)
	}
	if w := NewSampler(-5).Window(); w != 1 {
		t.Errorf("window -5 clamped to %d, want 1", w)
	}
}

func TestSamplerNilIsInert(t *testing.T) {
	var s *Sampler
	if s.Enabled() || s.Due(100) || s.Window() != 0 {
		t.Error("nil sampler not inert")
	}
	s.Record(map[string]int64{"x": 1})
	s.RecordFinal(5, nil)
	if s.Samples() != nil {
		t.Error("nil sampler recorded samples")
	}
}

func TestSamplerJSONRoundTrip(t *testing.T) {
	s := NewSampler(100)
	s.Record(map[string]int64{"b": 2, "a": 1})
	s.RecordFinal(150, map[string]int64{"b": 4, "a": 3})
	var buf1, buf2 bytes.Buffer
	if err := s.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("two exports of the same sampler differ")
	}
	ts, err := ReadTimeseriesJSON(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Schema != TimeseriesSchema || ts.Window != 100 || len(ts.Samples) != 2 {
		t.Errorf("round trip lost data: %+v", ts)
	}
	if ts.Samples[1].T != 150 || ts.Samples[1].Values["a"] != 3 {
		t.Errorf("round trip sample: %+v", ts.Samples[1])
	}
}

func TestSamplerEmptyJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewSampler(8).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"samples": []`) {
		t.Errorf("empty sampler should export an empty array, not null:\n%s", buf.String())
	}
}

func TestReadTimeseriesJSONRejectsSchema(t *testing.T) {
	if _, err := ReadTimeseriesJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, err := ReadTimeseriesJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed document accepted")
	}
}
