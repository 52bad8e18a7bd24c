// Command flexlint runs the repo's invariant analyzers (internal/lint) over
// package patterns and exits non-zero on any diagnostic:
//
//	go run ./cmd/flexlint ./...
//
// Patterns are go-tool-style directory patterns relative to the current
// directory: ./... (everything), ./internal/sim/... (a subtree), or a single
// directory. Testdata directories are skipped by ./... expansion like the go
// tool does, but may be named explicitly (the analyzer fixtures are
// themselves lintable packages).
//
// The analyzers and the invariants they guard (DESIGN decision 10 lists the
// invariants held by a type, by `go vet` or by a runtime test instead):
//
//	detlint       — determinism of the cycle model (sim, cmap, plan, graph)
//	kernelpin     — paper runners take core.Options from core.PaperBaseline only
//	boundarg      — no constant bound where a variable bound is in scope
//	adjwrite      — no writes into Adj results (read-only views; mmap faults)
//	atomichygiene — no function-style sync/atomic call: typed atomics only,
//	                so a mixed atomic/plain access cannot be written
//	goroleak      — a go statement spawns a literal or a statically resolved
//	                function, never a function value
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run loads the module above cwd and lints the patterns; exit code 2 on a
// load failure, lintPatterns' otherwise.
func run(cwd string, args []string, stdout, stderr io.Writer) int {
	prog, err := loadModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "flexlint:", err)
		return 2
	}
	return lintPatterns(prog, cwd, args, stdout, stderr)
}

// loadModule type-checks the module containing dir — the expensive step (the
// stdlib is checked from source), so the tests do it once per binary.
func loadModule(dir string) (*lint.Program, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return lint.Load(root)
}

// lintPatterns lints the patterns relative to cwd, prints diagnostics to
// stdout, and returns the exit code (0 clean, 1 diagnostics, 2 usage
// failure).
func lintPatterns(prog *lint.Program, cwd string, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	targets, err := selectPackages(prog, cwd, args)
	if err != nil {
		fmt.Fprintln(stderr, "flexlint:", err)
		return 2
	}
	diags := lint.Run(prog, lint.DefaultAnalyzers(), targets)
	for _, d := range diags {
		fmt.Fprintln(stdout, lint.Format(prog, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "flexlint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// selectPackages expands the directory patterns into loaded packages.
func selectPackages(prog *lint.Program, cwd string, patterns []string) ([]*lint.Package, error) {
	seen := map[string]bool{}
	var out []*lint.Package
	add := func(p *lint.Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "all" {
			pat = "./..."
		}
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		dir = filepath.Clean(dir)
		if recursive {
			n := 0
			for _, p := range prog.Packages() {
				if p.Testdata {
					continue
				}
				if p.Dir == dir || strings.HasPrefix(p.Dir, dir+string(filepath.Separator)) {
					add(p)
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("no packages match %s", pat)
			}
			continue
		}
		// Exact directory: prefer an already-loaded package, else load it
		// explicitly (testdata fixtures).
		found := false
		for _, p := range prog.Packages() {
			if p.Dir == dir {
				add(p)
				found = true
				break
			}
		}
		if !found {
			p, err := prog.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return out, nil
}
