package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// selected writes the named sources into a fresh directory and reports which
// of them sourceFiles keeps for the host platform.
func selected(t *testing.T, srcs map[string]string) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	for name, src := range srcs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := sourceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range files {
		got[f] = true
	}
	return got
}

// The loader must see the files `go build` would: these two tests pin the
// go tool's selection rules at the seam where the loader relies on go/build
// for them.

func TestFilenameExcluded(t *testing.T) {
	cases := map[string]bool{ // name → excluded
		"mmap_unix.go":                 false, // "unix" is not a filename GOOS
		"io.go":                        false,
		"linux.go":                     false, // no leading component
		"x_windows.go":                 runtime.GOOS != "windows",
		"x_" + runtime.GOOS + ".go":    false,
		"x_" + runtime.GOARCH + ".go":  false,
		"x_plan9_386.go":               runtime.GOOS != "plan9" || runtime.GOARCH != "386",
		"x_wasm.go":                    runtime.GOARCH != "wasm",
		"deque_test_helper_windows.go": runtime.GOOS != "windows",
		"x_test.go":                    true, // tests are not linted
	}
	srcs := map[string]string{}
	for name := range cases {
		srcs[name] = "package x\n"
	}
	got := selected(t, srcs)
	for name, excluded := range cases {
		if got[name] == excluded {
			t.Errorf("%s: selected = %v, want %v", name, got[name], !excluded)
		}
	}
}

func TestBuildTagsExclude(t *testing.T) {
	hostIsUnix := runtime.GOOS != "windows" && runtime.GOOS != "plan9" && runtime.GOOS != "js" && runtime.GOOS != "wasip1"
	cases := []struct {
		src      string
		excluded bool
	}{
		{"package x\n", false},
		{"//go:build unix\n\npackage x\n", !hostIsUnix},
		{"//go:build !unix\n\npackage x\n", hostIsUnix},
		{"//go:build " + runtime.GOOS + "\n\npackage x\n", false},
		{"//go:build !" + runtime.GOOS + "\n\npackage x\n", true},
		{"//go:build sometag\n\npackage x\n", true},
		{"//go:build go1.21\n\npackage x\n", false},
		// A build comment after the package clause constrains nothing.
		{"package x\n\n//go:build unix\nvar V int\n", false},
	}
	name := func(i int) string { return "f" + itoa(i) + ".go" }
	srcs := map[string]string{}
	for i, tc := range cases {
		srcs[name(i)] = tc.src
	}
	got := selected(t, srcs)
	for i, tc := range cases {
		if got[name(i)] == tc.excluded {
			t.Errorf("%q: selected = %v, want %v", tc.src, got[name(i)], !tc.excluded)
		}
	}
}
