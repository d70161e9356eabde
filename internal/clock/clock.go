// Package clock is the single place the solve stack reads wall-clock time.
//
// The paper's promise — a continuous optimizer whose runs are reproducible
// enough to trust (Workers ≤ 1 bit-for-bit, parallel runs
// objective-deterministic) — rests on solve paths never consulting ambient
// nondeterministic state directly. raslint's determinism rule forbids
// time.Now/time.Since in internal/lp, internal/mip, internal/solver,
// internal/backend, internal/partition and internal/broker; those packages route every timing
// read through this seam instead. Production uses the real clock; a test can
// install its own with Override, for instance to count reads or to act at a
// chosen read.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the two readings the solve stack needs: the current instant
// (phase stamps, deadline checks) and the elapsed time since an instant
// (phase statistics).
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

// systemClock is the production clock: the process wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }

// System is the real wall clock.
var System Clock = systemClock{}

var (
	mu     sync.RWMutex
	active Clock = System
)

// Now reports the active clock's current instant.
func Now() time.Time {
	mu.RLock()
	c := active
	mu.RUnlock()
	return c.Now()
}

// Since reports the elapsed time since t on the active clock.
func Since(t time.Time) time.Duration {
	mu.RLock()
	c := active
	mu.RUnlock()
	return c.Since(t)
}

// Override installs c as the active clock and returns a restore function.
// Tests use it to observe or script time; restore in a defer:
//
//	defer clock.Override(c)()
func Override(c Clock) (restore func()) {
	mu.Lock()
	prev := active
	active = c
	mu.Unlock()
	return func() {
		mu.Lock()
		active = prev
		mu.Unlock()
	}
}
