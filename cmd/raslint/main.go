// Command raslint runs the project's static-analysis pass (internal/lint)
// over the module: the AST rules determinism, mapiter, ctxflow, floatcmp and
// errdrop, the call-graph rule calldeterminism, and the concurrency rules
// lockcheck (a CFG dataflow) and leakcheck. It is part of the pre-merge gate
// (`make lint`, inside `make check`).
//
// Usage:
//
//	raslint [flags] [patterns...]
//
// Patterns are module-relative directories ("internal/mip") or subtree
// patterns ("./..."); the default is "./...". Every rule has an enable flag
// (-determinism=false disables it); -json emits machine-readable
// diagnostics; -stale additionally reports //raslint:allow directives that no
// longer suppress anything (on in `make lint`).
//
// Exit status separates a red tree from a broken linter: 0 clean, 1
// findings, 2 usage errors, 3 analyzer internal errors (a package failed to
// load or type-check, or output could not be written).
//
// Intentional exceptions are annotated in the source:
//
//	//raslint:allow <rule> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ras/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("raslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	dir := fs.String("C", ".", "module root directory")
	stale := fs.Bool("stale", false, "report //raslint:allow directives that suppress nothing")

	docs := lint.RuleDocs()
	ruleFlags := map[string]*bool{}
	names := lint.RuleNames()
	sort.Strings(names)
	for _, name := range names {
		if name == "directive" {
			continue // malformed directives are always errors
		}
		ruleFlags[name] = fs.Bool(name, true, "enable the "+name+" rule: "+docs[name])
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := &lint.Config{Disabled: map[string]bool{}, Stale: *stale}
	for name, enabled := range ruleFlags {
		if !*enabled {
			cfg.Disabled[name] = true
		}
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 3
	}
	pkgs, err := loader.LoadDirs(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 3
	}
	diags := lint.Run(cfg, pkgs)

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{} // a clean run is [], not null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 3
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "raslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}
