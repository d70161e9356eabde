package lint

// The testdata corpus under testdata/src/ is the analyzers' own unit test:
// each fixture package is loaded under a synthetic import path (so scope
// matching is exercised) and checked against `// want `regex`` expectations.
// Every diagnostic must be claimed by exactly one want on its line, and every
// want must be claimed by a diagnostic — unexpected findings and missed
// findings both fail.

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts `want `regex“ expectations from comment text. Block
// comments participate too: the directive fixtures need the expectation and
// the (line-comment) directive under test on the same line.
var wantRe = regexp.MustCompile("want `([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func TestAnalyzersAgainstTestdata(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
	}{
		// Positive fixtures load under in-scope paths; _out fixtures load
		// under out-of-scope paths and assert silence.
		{dir: "determinism", importPath: "ras/internal/topology"},
		{dir: "determinism_out", importPath: "ras/internal/experiments"},
		{dir: "calldeterminism", importPath: "ras/internal/app"},
		{dir: "mapiter", importPath: "ras/internal/solver"},
		{dir: "mapiter_out", importPath: "ras/internal/metrics"},
		{dir: "ctxflow", importPath: "ras/internal/broker"},
		{dir: "floatcmp", importPath: "ras/internal/lp"},
		{dir: "floatcmp_out", importPath: "ras/internal/topology"},
		{dir: "errdrop", importPath: "ras/internal/placer"},
		{dir: "directives", importPath: "ras/internal/directives"},
		{dir: "stale", importPath: "ras/internal/stale"},
	}

	// Registry and corpus cannot drift: a rule cannot ship without a fixture
	// that expects it to fire, and a deleted rule cannot leave its corpus
	// behind.
	inTable := map[string]bool{}
	for _, tc := range cases {
		inTable[tc.dir] = true
	}
	for _, rule := range RuleNames() {
		if rule == "directive" {
			continue
		}
		files, err := filepath.Glob(filepath.Join("testdata", "src", rule, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		wants := 0
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			wants += len(wantRe.FindAll(src, -1))
		}
		if !inTable[rule] || wants == 0 {
			t.Errorf("rule %s needs a testdata/src/%s fixture with a want expectation, listed in the table (in table: %v, wants: %d)", rule, rule, inTable[rule], wants)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !inTable[e.Name()] {
			t.Errorf("testdata/src/%s is not in the fixture table", e.Name())
		}
	}

	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			// A loader of its own per fixture: Load memoizes by import path,
			// and several fixtures share one.
			loader, err := NewLoaderAt(filepath.Join("testdata", "src"), "ras-lint-testdata")
			if err != nil {
				t.Fatalf("NewLoaderAt: %v", err)
			}
			pkg, err := loader.Load(filepath.Join("testdata", "src", tc.dir), tc.importPath)
			if err != nil {
				t.Fatalf("loading testdata/src/%s: %v", tc.dir, err)
			}
			wants := collectWants(t, pkg)
			diags := Run([]*Package{pkg})
			for _, d := range diags {
				claimed := false
				for _, w := range wants {
					if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
						w.hit = true
						claimed = true
						break
					}
				}
				if !claimed {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}
