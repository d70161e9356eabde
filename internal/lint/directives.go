package lint

// //raslint:allow directives: the escape hatch for findings that are
// intentional. The syntax is
//
//	//raslint:allow <rule> <reason...>
//
// where <rule> names one of the analyzers (or "directive" itself) and the
// reason is mandatory free text — an unexplained suppression is exactly the
// kind of mystery this linter exists to prevent. A directive written at the
// end of a code line suppresses matching findings on that line; a directive
// on a line of its own suppresses them on the line that follows.
//
// Malformed directives (missing rule, unknown rule, missing reason, unknown
// raslint verb) are themselves reported under the "directive" rule: a typo'd
// suppression must fail the build, not silently stop suppressing.

import (
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"os"
	"sort"
	"strings"
)

const directivePrefix = "//raslint:"

// allowDirective is one parsed, well-formed //raslint:allow comment.
type allowDirective struct {
	rule   string
	reason string
	// line is the line the directive suppresses findings on.
	line int
	pos  token.Pos
	// hit records whether this directive suppressed at least one finding in
	// the current run; an unhit directive is stale (Config.Stale).
	hit bool
}

// directiveSet indexes allow directives by file and line. One set spans the
// whole run: module-level analyzers report across package boundaries, so
// suppression lookup must too.
type directiveSet struct {
	// allows maps file name → line → rule → directive on that line.
	allows map[string]map[int]map[string]*allowDirective
	// list holds every directive in the order encountered, for
	// deterministic stale reporting.
	list []*allowDirective
}

func newDirectiveSet() *directiveSet {
	return &directiveSet{allows: map[string]map[int]map[string]*allowDirective{}}
}

// allowed reports whether a finding of rule at pos is suppressed, and marks
// the suppressing directive as hit.
func (d *directiveSet) allowed(pos token.Position, rule string) bool {
	if d == nil {
		return false
	}
	lines := d.allows[pos.Filename]
	if lines == nil {
		return false
	}
	ad := lines[pos.Line][rule]
	if ad == nil {
		return false
	}
	ad.hit = true
	return true
}

// parseDirectives scans every comment of pkg for raslint directives,
// reporting malformed ones through report and adding valid suppressions to
// set. knownRules guards against suppressing rules that do not exist.
func parseDirectives(pkg *Package, knownRules map[string]bool, set *directiveSet, report func(pos token.Pos, rule, format string, args ...any)) {
	for _, file := range pkg.Files {
		// Lines of this file that contain code, for the end-of-line vs
		// standalone distinction.
		codeLines := fileCodeLines(pkg.Fset, file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok, err := parseDirective(pkg.Fset, c, knownRules, codeLines)
				if err != nil {
					report(c.Pos(), "directive", "%v", err)
					continue
				}
				if !ok {
					continue
				}
				filename := pkg.Fset.Position(d.pos).Filename
				lines := set.allows[filename]
				if lines == nil {
					lines = map[int]map[string]*allowDirective{}
					set.allows[filename] = lines
				}
				rules := lines[d.line]
				if rules == nil {
					rules = map[string]*allowDirective{}
					lines[d.line] = rules
				}
				if rules[d.rule] != nil {
					// Duplicate directive for the same rule and line (a
					// test package re-parsing its non-test files lands
					// here too): keep the first, which is the one findings
					// will mark hit.
					continue
				}
				ad := d
				rules[ad.rule] = &ad
				set.list = append(set.list, &ad)
			}
		}
	}
}

// parseDirective parses one comment. ok reports whether it was a valid allow
// directive; err reports a malformed one (which is not ok).
func parseDirective(fset *token.FileSet, c *ast.Comment, knownRules map[string]bool, codeLines map[int]bool) (allowDirective, bool, error) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return allowDirective{}, false, nil
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	verb = strings.TrimSpace(verb)
	if verb != "allow" {
		return allowDirective{}, false, fmt.Errorf("unknown raslint directive %q (only \"allow\" exists)", verb)
	}
	fields := strings.Fields(args)
	if len(fields) == 0 {
		return allowDirective{}, false, fmt.Errorf("raslint:allow needs a rule name: //raslint:allow <rule> <reason>")
	}
	rule := fields[0]
	if !knownRules[rule] {
		return allowDirective{}, false, fmt.Errorf("raslint:allow names unknown rule %q (known: %s)", rule, strings.Join(sortedRuleNames(knownRules), ", "))
	}
	if len(fields) < 2 {
		return allowDirective{}, false, fmt.Errorf("raslint:allow %s needs a reason: //raslint:allow %s <reason>", rule, rule)
	}
	pos := fset.Position(c.Pos())
	line := pos.Line
	if !codeLines[line] {
		// Standalone comment line: the suppression applies to the next line.
		line++
	}
	return allowDirective{rule: rule, reason: strings.Join(fields[1:], " "), line: line, pos: c.Pos()}, true, nil
}

// fileCodeLines reports the set of lines of file that contain at least one
// non-comment token, so a directive can tell "end of a code line" from "line
// of its own". It rescans the file source: the AST does not preserve every
// punctuation token (a lone "}" or "break" line has no leaf node).
func fileCodeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	tf := fset.File(file.Pos())
	if tf == nil {
		return lines
	}
	src, err := os.ReadFile(tf.Name())
	if err != nil {
		return lines
	}
	var sc scanner.Scanner
	// A fresh FileSet keeps the scan from perturbing the shared one.
	scanFile := token.NewFileSet().AddFile(tf.Name(), -1, len(src))
	sc.Init(scanFile, src, nil, 0)
	for {
		pos, tok, _ := sc.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.COMMENT || tok == token.SEMICOLON {
			continue // auto-inserted semicolons don't make a line "code"
		}
		lines[scanFile.Position(pos).Line] = true
	}
	return lines
}

func sortedRuleNames(rules map[string]bool) []string {
	names := make([]string, 0, len(rules))
	for name := range rules {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
