// Fixture for stale-directive detection, which every run performs. The
// first directive suppresses a real finding (the module-wide global-rand
// half of the determinism rule fires under any import path); the second
// suppresses nothing and must be reported.
package stale

import "math/rand"

func used() int {
	return rand.Intn(4) //raslint:allow determinism fixture: directive that still earns its keep
}

/* want `stale //raslint:allow determinism: it suppresses no determinism finding` */ //raslint:allow determinism fixture: the next line has no finding
func unused() int {
	return 7
}
