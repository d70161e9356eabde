package ras_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ras/internal/lint"
)

// TestInvariantLedger keeps DESIGN.md's invariant ledger honest. The ledger
// is the file's first section: a table with one row per invariant, whose
// "Checked by" cell names the checks that enforce it — Test and Fuzz
// functions of the repository, or raslint rules — or starts with "none" for
// an invariant nothing checks yet. Every named check must exist, and every
// row must name the planted mutation its check catches. The citations
// subtest holds every reference to a DESIGN.md section by its quoted title,
// in Go comments and in the Markdown documents that describe the current
// tree, to a heading or bold paragraph title the file still has.
func TestInvariantLedger(t *testing.T) {
	design := readText(t, "DESIGN.md")
	funcs := testFuncs(t)
	rules := lint.RuleNames()

	rows := ledgerRows(t, design)
	if len(rows) == 0 {
		t.Fatal("the invariant ledger has no rows")
	}
	checkRe := regexp.MustCompile("`((?:Test|Fuzz)\\w+)`")
	ruleRe := regexp.MustCompile("raslint `(\\w+)`")
	for _, r := range rows {
		tests, named := checkRe.FindAllStringSubmatch(r.check, -1), ruleRe.FindAllStringSubmatch(r.check, -1)
		if len(tests)+len(named) == 0 && !strings.HasPrefix(r.check, "none") {
			t.Errorf("ledger row %q names no check and does not say none", r.invariant)
		}
		for _, m := range tests {
			if !funcs[m[1]] {
				t.Errorf("ledger row %q names %s, which no _test.go file defines", r.invariant, m[1])
			}
		}
		for _, m := range named {
			if !slices.Contains(rules, m[1]) {
				t.Errorf("ledger row %q names raslint rule %q; the rules are %v", r.invariant, m[1], rules)
			}
		}
		if r.mutation == "" {
			t.Errorf("ledger row %q names no planted mutation", r.invariant)
		}
	}

	t.Run("citations", func(t *testing.T) {
		titles := designTitles(design)
		cites := designCitations(t)
		if len(cites) == 0 {
			t.Fatal("no file cites a DESIGN.md section: the citation patterns no longer match how the tree cites it")
		}
		for _, c := range cites {
			if !titles[c.title] {
				t.Errorf("%s cites DESIGN.md section %q, which is neither a heading nor a bold paragraph title", c.file, c.title)
			}
		}
		t.Logf("%d citations checked", len(cites))
	})
}

// settable is the ledger of settable values: every exported field of the
// solver's, the branch-and-bound engine's and the simplex's options, with
// the callers that set it. A value stays settable only where two callers
// need different values (ROADMAP's standing rules); one that no caller
// varies becomes a constant next to its reader.
var settable = []struct{ field, setBy string }{
	{"solver.Config.Phase1TimeLimit", "benchmark/driver.go, the experiments' per-scale budgets, rassolve -time-limit"},
	{"solver.Config.Phase2TimeLimit", "benchmark/driver.go, the experiments' per-scale budgets, rassolve -time-limit"},
	{"solver.Config.MaxNodes", "benchmark/driver.go, the experiments' per-scale budgets, tests"},
	{"solver.Config.DisableRackPhase", "Fig 10/11 (fig_solver.go), tests"},
	{"solver.Config.SetupOnly", "Fig 10/11 (fig_solver.go), the benchmark's set-up probe"},
	{"solver.Config.SharedBufferFraction", "benchmark/driver.go, Fig 12 and BufferAccounting (fig_placement.go), tests"},
	{"mip.Options.MaxNodes", "solver.solvePhase (Config.MaxNodes), the engine's tests"},
	{"mip.Options.AbsGap", "solver.solvePhase (absGap); the engine's reference tests keep the 1e-6 default"},
	{"mip.Options.StallNodes", "solver.solvePhase (stallNodes), TestDriverMatchesSerialReference (8)"},
	{"mip.Options.StallGap", "solver.solvePhase (stallGap), TestDriverMatchesSerialReference"},
	{"mip.Options.RootBasis", "solver.solvePhase (the previous round's root basis), tests"},
	{"mip.Options.RootWorkspace", "solver.solvePhase (the previous round's root workspace), tests"},
	{"mip.Options.Workers", "solver.solvePhase (the backend's worker count), tests"},
	{"lp.Options.Start", "mip's node LPs (the parent's basis), tests"},
	{"lp.Options.ReuseBasis", "mip's node LPs, tests"},
	{"lp.Options.RefactorEvery", "the kernel's tests (-1: refactorize every pivot)"},
}

// TestSettableLedger keeps settable in step with the code: it parses the
// three option structs and fails when an exported field is added, removed
// or renamed without its ledger entry changing too.
func TestSettableLedger(t *testing.T) {
	got := map[string]bool{}
	for _, s := range []struct{ dir, pkg, typ string }{
		{"internal/solver", "solver", "Config"},
		{"internal/mip", "mip", "Options"},
		{"internal/lp", "lp", "Options"},
	} {
		fields := exportedFields(t, s.dir, s.typ)
		if len(fields) == 0 {
			t.Fatalf("%s defines no struct %s with exported fields", s.dir, s.typ)
		}
		for _, f := range fields {
			got[s.pkg+"."+s.typ+"."+f] = true
		}
	}
	listed := map[string]bool{}
	for _, e := range settable {
		listed[e.field] = true
		if !got[e.field] {
			t.Errorf("the ledger lists %s, which the code no longer has", e.field)
		}
		if e.setBy == "" {
			t.Errorf("the ledger names no caller that sets %s", e.field)
		}
	}
	for f := range got {
		if !listed[f] {
			t.Errorf("%s is settable but not in the ledger: name the callers that need different values, or make it a constant", f)
		}
	}
	t.Logf("%d settable values", len(settable))
}

// exportedFields lists the exported fields of struct type typ declared in
// the non-test Go files of dir.
func exportedFields(t *testing.T, dir, typ string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
			return false
		})
	}
	return names
}

type ledgerRow struct{ invariant, check, mutation string }

// ledgerRows parses the table of DESIGN.md's first "## " section, which must
// be the invariant ledger, by its header's column names.
func ledgerRows(t *testing.T, design string) []ledgerRow {
	t.Helper()
	var rows []ledgerRow
	var header []string
	inLedger := false
	for _, line := range strings.Split(design, "\n") {
		if strings.HasPrefix(line, "## ") {
			if inLedger {
				break
			}
			if line != "## Invariant ledger" {
				t.Fatalf("DESIGN.md's first section is %q, want the invariant ledger", line)
			}
			inLedger = true
			continue
		}
		if !inLedger || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case header == nil:
			header = cells
		case strings.HasPrefix(cells[0], "---"):
		case len(cells) != len(header):
			t.Fatalf("ledger row has %d cells, its header %d: %s", len(cells), len(header), line)
		default:
			col := func(name string) string {
				i := slices.Index(header, name)
				if i < 0 {
					t.Fatalf("the ledger has no %q column: %v", name, header)
				}
				return cells[i]
			}
			rows = append(rows, ledgerRow{col("Invariant"), col("Checked by"), col("Planted mutation")})
		}
	}
	if !inLedger {
		t.Fatal("DESIGN.md has no sections")
	}
	return rows
}

// testFuncs lists every Test and Fuzz function the repository defines.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	funcs := map[string]bool{}
	walkRepo(t, func(path string) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcRe.FindAllStringSubmatch(readText(t, path), -1) {
				funcs[m[1]] = true
			}
		}
	})
	return funcs
}

// designTitles collects DESIGN.md's headings and the bold titles that open
// a paragraph or list item, without a trailing period or colon.
func designTitles(design string) map[string]bool {
	titles := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ +(.+)$`).FindAllStringSubmatch(design, -1) {
		titles[strings.TrimSpace(m[1])] = true
	}
	for _, m := range regexp.MustCompile(`(?m)^(?:[-*] +|\d+\. +)?\*\*([^*]+)\*\*`).FindAllStringSubmatch(design, -1) {
		titles[strings.TrimRight(m[1], ".: ")] = true
	}
	return titles
}

type citation struct{ file, title string }

// designCitations finds every section citation — the file's name followed by
// a quoted title (a comma, an opening parenthesis or 's may come between),
// or a quoted title followed by "in" and the file's name — in the comments of
// Go files and the text of Markdown files, with line breaks folded to spaces.
func designCitations(t *testing.T) []citation {
	t.Helper()
	citeRes := []*regexp.Regexp{
		regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)?[ ,(]*"([^"]{1,80})"`),
		regexp.MustCompile(`"([^"]{1,80})" in DESIGN\.md`),
	}
	// The Markdown documents that describe the current tree. Change logs and
	// other notes quote section titles as they stood when written.
	docs := []string{"README.md", "DESIGN.md", "ROADMAP.md", "EXPERIMENTS.md",
		"benchmark/README.md", ".claude/skills/verify/SKILL.md"}
	space := regexp.MustCompile(`\s+`)
	var cites []citation
	walkRepo(t, func(path string) {
		var texts []string
		switch {
		case strings.HasSuffix(path, ".md"):
			if !slices.Contains(docs, path) {
				return
			}
			texts = []string{readText(t, path)}
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				texts = append(texts, cg.Text())
			}
		}
		for _, text := range texts {
			text = space.ReplaceAllString(text, " ")
			for _, re := range citeRes {
				for _, m := range re.FindAllStringSubmatch(text, -1) {
					cites = append(cites, citation{path, m[1]})
				}
			}
		}
	})
	return cites
}

// walkRepo calls fn with the slash-separated path of every file in the
// repository, skipping version control, build output and test fixtures.
func walkRepo(t *testing.T, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		fn(filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readText(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
