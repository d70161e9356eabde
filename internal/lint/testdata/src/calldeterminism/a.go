// Fixture holding the cases the call-graph rule calldeterminism used to
// reach, loaded under "ras/internal/app" as it was: an interface method, a
// helper two calls below Solve, and a read on no solve path at all. The
// determinism rule is module-wide, so each direct read is a finding where it
// sits, with no call graph and no entry points.
package app

import (
	"math/rand"
	"time"
)

type ticker interface {
	tick()
}

type realTicker struct{}

func (realTicker) tick() {
	_ = time.Now() // want `time\.Now reads the wall clock`
}

func Solve() {
	helper()
	var t ticker = realTicker{}
	t.tick()
	_ = seeded()
}

func helper() {
	_ = stamp()
}

func stamp() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// Seeded sources and their methods are deterministic.
func seeded() int {
	rng := rand.New(rand.NewSource(7))
	return rng.Intn(4)
}

func offThePath() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}
