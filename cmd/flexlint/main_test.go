package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	progOnce sync.Once
	prog     *lint.Program
	progErr  error
)

// lintAt runs the CLI's pattern step from the repo root against one module
// load shared by the whole test binary (loading is ~3 s; main does it once
// per process too). The root is found from this file's location, so the
// tests work regardless of the go test working directory.
func lintAt(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file))) // cmd/flexlint -> repo root
	progOnce.Do(func() { prog, progErr = loadModule(filepath.Dir(file)) })
	if progErr != nil {
		t.Fatal(progErr)
	}
	var out, errOut bytes.Buffer
	code = lintPatterns(prog, root, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunFlagsSeededViolations drives the multichecker against a known-bad
// testdata package and asserts the non-zero exit plus the expected
// diagnostic — the satellite acceptance check for the CLI itself.
func TestRunFlagsSeededViolations(t *testing.T) {
	code, out, errOut := lintAt(t, "./internal/lint/testdata/src/boundarg")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "boundarg:") {
		t.Errorf("stdout missing boundarg diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "passes a constant bound to IntersectCount") {
		t.Errorf("stdout missing constant-bound message:\n%s", out)
	}
	if !strings.Contains(errOut, "invariant violation") {
		t.Errorf("stderr missing summary line:\n%s", errOut)
	}
}

// TestRunFlagsGoroleakViolations drives the CLI against the goroleak fixture:
// the production rule is module-wide and unscoped, so a spawned function
// value or interface method must fail the run.
func TestRunFlagsGoroleakViolations(t *testing.T) {
	code, out, errOut := lintAt(t, "./internal/lint/testdata/src/goroleak")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{
		"goroleak: go statement spawns a dynamic function value",
		"goroleak: go statement spawns interface method run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRunFlagsAtomicViolations drives the CLI against the atomichygiene
// fixture: the production rule is module-wide and unscoped, so every
// function-style sync/atomic use must fail the run.
func TestRunFlagsAtomicViolations(t *testing.T) {
	code, out, errOut := lintAt(t, "./internal/lint/testdata/src/atomichygiene")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{
		"atomichygiene: function-style atomic.AddInt64",
		"atomichygiene: function-style atomic.CompareAndSwapInt64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRunCleanPackage asserts exit 0 and silence on a clean package.
func TestRunCleanPackage(t *testing.T) {
	code, out, errOut := lintAt(t, "./internal/setops")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if out != "" {
		t.Errorf("unexpected stdout:\n%s", out)
	}
}

// TestRunBadPattern asserts the usage exit code for unmatched patterns.
func TestRunBadPattern(t *testing.T) {
	if code, _, _ := lintAt(t, "./no/such/dir/..."); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
