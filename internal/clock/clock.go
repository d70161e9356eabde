// Package clock is the single place the solve stack reads wall-clock time.
//
// The paper's promise — a continuous optimizer whose runs are reproducible
// enough to trust (Workers ≤ 1 bit-for-bit, parallel runs
// objective-deterministic) — rests on solve paths never consulting ambient
// nondeterministic state directly. raslint's determinism rule forbids
// time.Now/time.Since in internal/lp, internal/mip, internal/solver,
// internal/backend, internal/partition and internal/broker; those packages route every timing
// read through this seam instead. Production uses the real clock; tests
// inject a fake one and get identical phase timings run-to-run.
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
// Tests use it to freeze or script time; restore in a defer:
//
//	defer clock.Override(fake)()
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

// Fake is a manually advanced clock for tests. The zero value starts at the
// zero time; use Advance to move it forward.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake returns a Fake frozen at start.
func NewFake(start time.Time) *Fake { return &Fake{t: start} }

// Now reports the fake's current instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Since reports elapsed fake time since t.
func (f *Fake) Since(t time.Time) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t.Sub(t)
}

// Advance moves the fake clock forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Stepper is a self-advancing test clock: every Now read returns the current
// instant and then steps the clock forward by a fixed amount. Deadline-polling
// loops — the MIP engine checks clock.Now() against its deadline once per
// node — therefore time out after a deterministic number of reads, with no
// real time passing and no goroutine needed to drive the clock. Since is a
// pure read and does not advance.
type Stepper struct {
	mu    sync.Mutex
	t     time.Time
	step  time.Duration
	reads int
}

// NewStepper returns a Stepper whose first Now read reports start and which
// advances by step per read.
func NewStepper(start time.Time, step time.Duration) *Stepper {
	return &Stepper{t: start, step: step}
}

// Now reports the current instant and advances the clock by one step.
func (s *Stepper) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.t
	s.t = s.t.Add(s.step)
	s.reads++
	return t
}

// Since reports elapsed stepper time since t, without advancing.
func (s *Stepper) Since(t time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Sub(t)
}

// Reads reports how many Now reads the stepper has served.
func (s *Stepper) Reads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}
