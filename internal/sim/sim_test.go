package sim

import (
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %d, want 100", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(10, func(Time) { order = append(order, i) })
	}
	e.RunUntil(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(50, func(Time) { ran = true })
	e.RunUntil(49)
	if ran {
		t.Fatal("event at 50 ran during RunUntil(49)")
	}
	e.RunUntil(50)
	if !ran {
		t.Fatal("event at 50 did not run during RunUntil(50)")
	}
}

func TestEventsScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func(Time)
	chain = func(now Time) {
		count++
		if count < 5 {
			e.At(now+10, chain)
		}
	}
	e.At(0, chain)
	e.RunUntil(1000)
	if count != 5 {
		t.Fatalf("chain ran %d times, want 5", count)
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d", e.Processed())
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Every(Hour, func(now Time) { times = append(times, now) })
	e.RunUntil(4 * Hour)
	if len(times) != 4 {
		t.Fatalf("ticked %d times, want 4", len(times))
	}
	for i, at := range times {
		if at != Time(i+1)*Hour {
			t.Fatalf("tick %d at %d", i, at)
		}
	}
}

func TestEveryPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Every(0, func(Time) {})
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.RunUntil(20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past scheduling")
		}
	}()
	e.At(5, func(Time) {})
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	e.At(100, func(now Time) {
		e.After(50, func(now Time) {
			if now != 150 {
				t.Errorf("After fired at %d, want 150", now)
			}
		})
	})
	e.RunUntil(200)
}

// Property: N events at random times always run in nondecreasing time order.
func TestQuickOrdering(t *testing.T) {
	check := func(times []uint16) bool {
		e := NewEngine()
		var ran []Time
		for _, tt := range times {
			e.At(Time(tt), func(now Time) { ran = append(ran, now) })
		}
		e.RunUntil(1 << 17)
		if len(ran) != len(times) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
