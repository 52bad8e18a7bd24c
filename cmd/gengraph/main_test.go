package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestRunRejectsUnreadSizeFlags: a size flag the chosen generator does not read
// used to be ignored without a word (`-kind rmat -n 4096` built 2^14 vertices).
// It now fails before anything is written, naming the flags that do count.
func TestRunRejectsUnreadSizeFlags(t *testing.T) {
	runRejects(t, []rejection{
		{"-kind rmat -n 4096 -m 100", "-n: not read by -kind rmat, whose size flags are -scale, -m"},
		{"-kind grid -n 16", "-n: not read by -kind grid, whose size flags are -k"},
		{"-kind er -n 64 -m 100 -scale 6", "-scale: not read by -kind er"},
		{"-n 64 -m 100 -scale 6", "-scale: not read by -kind chunglu"},
		{"-kind er -n 64 -m 100 -beta 2.1", "-beta: not read by -kind er"},
		{"-kind clique -n 8 -k 3", "-k: not read by -kind clique"},
		{"-kind ring -n 8 -k 2 -m 5", "-m: not read by -kind ring, whose size flags are -n, -k"},
		{"-convert in.txt -n 8", "-n: not read with -convert"},
	})
}

// TestRunRejectsDegenerateSizes: sizes that used to panic (a division by zero
// in the generator, a negative make) or exhaust memory are errors, and
// nothing is written.
func TestRunRejectsDegenerateSizes(t *testing.T) {
	runRejects(t, []rejection{
		{"-kind er -n 0 -m 10", "-n 0: must be positive"},
		{"-kind er -n 10 -m -5", "-m -5: must be positive"},
		{"-kind chunglu -n -3 -m 10", "-n -3: must be positive"},
		{"-kind chunglu -n 10 -m 0", "-m 0: must be positive"},
		{"-kind bipartite -n 1 -m 10", "-n 1: a bipartite graph needs a vertex on each side"},
		{"-kind bipartite -n 0 -m 10", "-n 0: must be positive"},
		{"-kind rmat -scale 40 -m 10", "-scale 40: must be at most 31"},
		{"-kind rmat -scale 0 -m 10", "-scale 0: must be positive"},
		{"-kind rmat -scale 8 -m -5", "-m -5: must be positive"},
		{"-kind ring -n 0 -k 2", "-n 0: must be positive"},
		{"-kind ring -n 8 -k 0", "-k 0: must be positive"},
		{"-kind clique -n 0", "-n 0: must be positive"},
		{"-kind grid -k -1", "-k -1: must be positive"},
	})
}

// rejection is a gengraph command line and a substring of the error it must
// fail with.
type rejection struct{ args, want string }

// runRejects runs each command line and requires its error, with nothing
// written to the output path.
func runRejects(t *testing.T, cases []rejection) {
	t.Helper()
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "g.bin")
		err := run(append(strings.Fields(c.args), "-o", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("gengraph %s: error %v, want one containing %q", c.args, err, c.want)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("gengraph %s: wrote %s before failing", c.args, out)
		}
	}
}

// TestRunSizes: every generator builds the size its own flags state.
func TestRunSizes(t *testing.T) {
	for _, c := range []struct {
		args     string
		vertices int
	}{
		{"-kind rmat -scale 9 -m 4500 -seed 7", 512},
		{"-kind rmat -scale 9 -m 4500 -seed 7 -orient", 512},
		{"-kind er -n 100 -m 300", 100},
		{"-kind chunglu -n 200 -m 900 -beta 2.2", 200},
		{"-kind ring -n 12 -k 2", 12},
		{"-kind clique -n 7", 7},
		{"-kind bipartite -n 20 -m 40", 20},
		{"-kind bipartite -n 2 -m 1", 2},
		{"-kind rmat -scale 1 -m 1", 2},
		{"-kind grid -k 5", 25},
	} {
		out := filepath.Join(t.TempDir(), "g.bin")
		if err := run(append(strings.Fields(c.args), "-o", out)); err != nil {
			t.Errorf("gengraph %s: %v", c.args, err)
			continue
		}
		g, err := graph.Load(out)
		if err != nil {
			t.Errorf("gengraph %s: %v", c.args, err)
			continue
		}
		if g.NumVertices() != c.vertices {
			t.Errorf("gengraph %s: %d vertices, want %d", c.args, g.NumVertices(), c.vertices)
		}
	}
}
