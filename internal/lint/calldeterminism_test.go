package lint

import "testing"

// TestDefaultEntryPointsResolve loads the whole module and requires every
// default calldeterminism entry point to name at least one function of its
// call graph. An entry that resolves to nothing is skipped without a word —
// that is what lets `raslint internal/mip` run alone — so a renamed or
// deleted entry point would otherwise stop the rule from walking its callees
// while the gate stays green.
func TestDefaultEntryPointsResolve(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph(pkgs)
	for _, entry := range defaultSolveEntryPoints {
		spec, err := parseEntrySpec(entry)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, fn := range g.resolveEntry(pkgs, spec) {
			if g.nodes[fn] != nil {
				found++
			}
		}
		if found == 0 {
			t.Errorf("default entry point %s resolves to no function of the module", entry)
		}
	}
}
