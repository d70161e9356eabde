package clock

import (
	"testing"
	"time"
)

func TestSystemClockAdvances(t *testing.T) {
	a := Now()
	b := Now()
	if b.Before(a) {
		t.Fatalf("system clock went backwards: %v then %v", a, b)
	}
	if d := Since(a); d < 0 {
		t.Fatalf("negative Since: %v", d)
	}
}

// fixed is a clock frozen at one instant.
type fixed time.Time

func (f fixed) Now() time.Time                  { return time.Time(f) }
func (f fixed) Since(t time.Time) time.Duration { return time.Time(f).Sub(t) }

func TestOverrideAndFake(t *testing.T) {
	base := time.Date(2021, 10, 26, 0, 0, 0, 0, time.UTC) // SOSP'21
	restore := Override(fixed(base))
	defer restore()

	if got := Now(); !got.Equal(base) {
		t.Fatalf("Now() = %v, want %v", got, base)
	}
	if got := Since(base.Add(-90 * time.Second)); got != 90*time.Second {
		t.Fatalf("Since(base−90s) = %v, want 90s", got)
	}

	restore()
	if got := Now(); got.Year() == 2021 {
		t.Fatalf("restore did not reinstall the previous clock: %v", got)
	}
	// Calling restore twice must not clobber a later Override.
	defer Override(fixed(base.Add(time.Hour)))()
}
