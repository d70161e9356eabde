// Fixture for the determinism analyzer, loaded under "ras/internal/topology":
// a package outside the solver that the solve path calls. Both halves of the
// rule are module-wide, so every direct read below is a finding. The
// calldeterminism fixture holds the call-path cases (interface method,
// helper two calls deep, no solve path).
package determinism

import (
	"math/rand"
	"time"
)

func clockReads() time.Duration {
	t0 := time.Now()    // want `time\.Now reads the wall clock`
	d := time.Since(t0) // want `time\.Since reads the wall clock`
	return d
}

func untilDeadline(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time\.Until reads the wall clock`
}

func globalRand() int {
	return rand.Intn(4) // want `rand\.Intn draws from the global rand source`
}

func seededRand() int {
	rng := rand.New(rand.NewSource(7)) // seeded constructor and methods: fine
	return rng.Intn(4)
}

func durations(d time.Duration) time.Time {
	return time.Unix(0, 0).Add(d) // constructing and shifting instants reads no clock: fine
}

func allowedStandalone() time.Time {
	//raslint:allow determinism fixture exercising the standalone directive form
	return time.Now()
}

func allowedInline() time.Time {
	return time.Now() //raslint:allow determinism fixture exercising the end-of-line directive form
}
