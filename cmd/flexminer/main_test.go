package main

import (
	"path/filepath"
	"strings"
	"testing"
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
		// The control: with nothing wrong in the flags, the file error is what surfaces.
		{"missing file", options{graphPath: missing, app: "TC", engine: "cpu"}, "no such file"},
	} {
		err := run(c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
