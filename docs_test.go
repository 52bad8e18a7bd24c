package flexminer

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// docTestName is a backticked test, benchmark or fuzz name: an identifier,
	// then "…" or "*" (a prefix), or a {a,b} set of suffixes
	// (TestKernelInvariance{,DAG,Induced}), then anything (flags).
	docTestName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z0-9_]\\w*)(…|\\*|\\{[\\w,]*\\})?[^`\\n]*`")
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	decisionRef = regexp.MustCompile(`[Dd]ecisions?\s+(\d+)`)
	decisionDef = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
	// roadmapRef is a citation of a ROADMAP.md item: "ROADMAP 19", "ROADMAP 1f",
	// "ROADMAP 1(f)", "ROADMAP item 2" — or "item 10" alone.
	roadmapRef = regexp.MustCompile(`ROADMAP\s+(?:items?\s+)?(\d+)|\b[Ii]tems?\s+(\d+)`)
	// roadmapDef is an open item of ROADMAP.md: its number, and whether it is
	// marked *Superseded* or *Folded* into others.
	roadmapDef = regexp.MustCompile(`(?m)^(\d+)\. (\*\*|\*Superseded|\*Folded)`)
)

// TestDocReferencesResolve holds the docs to the code they point a reader
// at: every backticked Test…, Benchmark… or Fuzz… name in README.md,
// DESIGN.md and EXPERIMENTS.md is declared in some _test.go file of the
// module, and every "decision N" in README.md, EXPERIMENTS.md and the
// comments of every .go file is one that DESIGN.md numbers; every "ROADMAP N",
// "ROADMAP N(x)" or "item N" there and in DESIGN.md is an open item that
// ROADMAP.md numbers, not one it marks *Superseded* or *Folded* into others.
// ROADMAP.md's own test names are left out: it names tests not yet written.
func TestDocReferencesResolve(t *testing.T) {
	declared := map[string]bool{}
	type cite struct{ where, text string }
	var goComments []cite
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			goComments = append(goComments, cite{fset.Position(c.Pos()).String(), c.Text()})
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasPrefix := func(p string) bool {
		for name := range declared {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	read := func(doc string) string {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, m := range docTestName.FindAllStringSubmatch(read(doc), -1) {
			name, suffix := m[1], m[2]
			switch {
			case suffix == "…" || suffix == "*":
				if !hasPrefix(name) {
					t.Errorf("%s: no test function starts with %s (`%s`)", doc, name, m[0])
				}
			case suffix != "":
				for _, alt := range strings.Split(strings.Trim(suffix, "{}"), ",") {
					if !declared[name+alt] {
						t.Errorf("%s: %s%s is declared in no _test.go (`%s`)", doc, name, alt, m[0])
					}
				}
			case !declared[name]:
				t.Errorf("%s: %s is declared in no _test.go", doc, name)
			}
		}
	}

	numbered := map[int]bool{}
	for _, m := range decisionDef.FindAllStringSubmatch(read("DESIGN.md"), -1) {
		n, _ := strconv.Atoi(m[1])
		numbered[n] = true
	}
	if len(numbered) == 0 {
		t.Fatal("DESIGN.md numbers no decisions")
	}
	cites := append([]cite{{"README.md", read("README.md")}, {"EXPERIMENTS.md", read("EXPERIMENTS.md")}}, goComments...)
	for _, c := range cites {
		for _, m := range decisionRef.FindAllStringSubmatch(c.text, -1) {
			if n, _ := strconv.Atoi(m[1]); !numbered[n] {
				t.Errorf("%s: %q, but DESIGN.md numbers no decision %d", c.where, m[0], n)
			}
		}
	}

	_, open, ok := strings.Cut(read("ROADMAP.md"), "## Open items")
	if !ok {
		t.Fatal("ROADMAP.md has no Open items section")
	}
	items := map[int]string{} // by number: "**" open, or the mark that retired it
	for _, m := range roadmapDef.FindAllStringSubmatch(open, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = m[2]
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md numbers no open items")
	}
	for _, c := range append(cites, cite{"DESIGN.md", read("DESIGN.md")}) {
		for _, m := range roadmapRef.FindAllStringSubmatch(c.text, -1) {
			n, _ := strconv.Atoi(m[1] + m[2])
			switch mark := items[n]; mark {
			case "**":
			case "":
				t.Errorf("%s: %q, but ROADMAP.md numbers no item %d", c.where, m[0], n)
			default:
				t.Errorf("%s: %q, but ROADMAP.md marks item %d %s", c.where, m[0], n, strings.Trim(mark, "*"))
			}
		}
	}
}
