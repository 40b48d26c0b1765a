package sim

import (
	"strings"
	"testing"
	"time"
)

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := NewEngine(1)
	var fired time.Duration
	e.At(time.Second, func() {
		e.After(500*time.Millisecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 1500*time.Millisecond {
		t.Fatalf("fired at %v, want 1.5s", fired)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(time.Second, func() {
		e.At(0, func() { ran = true }) // in the past; must still run
	})
	e.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var ticks []time.Duration
	tk := every(e, 10*time.Millisecond, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(35 * time.Millisecond)
	tk.Stop()
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * 10 * time.Millisecond; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = every(e, time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestEveryPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a ticker of interval 0 did not panic")
		}
	}()
	every(NewEngine(1), 0, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.At(time.Hour, func() {})
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunFor(59 * time.Minute)
	if e.Pending() != 0 {
		t.Fatal("hour event did not run")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("engines with equal seeds diverge")
		}
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestZeroValueEnginePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s on zero-value Engine did not panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "NewEngine") {
				t.Errorf("%s panic = %v, want message pointing at NewEngine", name, r)
			}
		}()
		fn()
	}
	var e Engine
	mustPanic("Rand", func() { _ = e.Rand() })
	mustPanic("At", func() { e.At(time.Second, func() {}) })
	mustPanic("After", func() { e.After(time.Second, func() {}) })
}

func TestEventRecyclingPreservesSemantics(t *testing.T) {
	// Interleave scheduling and stepping so popped events are reused while
	// others are still pending; order and timestamps must be unaffected.
	e := NewEngine(1)
	var got []int
	for round := 0; round < 3; round++ {
		base := e.Now()
		for i := 0; i < 100; i++ {
			i := i
			e.At(base+time.Duration(100-i)*time.Millisecond, func() { got = append(got, i) })
		}
		e.Run()
	}
	if len(got) != 300 {
		t.Fatalf("ran %d events, want 300", len(got))
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 100; i++ {
			if got[r*100+i] != 99-i {
				t.Fatalf("round %d slot %d = %d, want %d", r, i, got[r*100+i], 99-i)
			}
		}
	}
}

func TestEventRecyclingFromWithinCallback(t *testing.T) {
	// A callback that schedules more work may reuse its own just-popped
	// event; the chain must still run to completion in order.
	e := NewEngine(1)
	var n int
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.After(time.Millisecond, tick)
		}
	}
	e.After(time.Millisecond, tick)
	e.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d times, want 1000", n)
	}
	if e.Now() != 1000*time.Millisecond {
		t.Fatalf("Now = %v, want 1s", e.Now())
	}
}

// TestDeliveriesGoToTheHandler: a delivery event runs the engine's one
// delivery handler with its key, before same-instant timers and in key order
// whatever the scheduling order; a second handler, or a delivery on an engine
// without one, panics.
func TestDeliveriesGoToTheHandler(t *testing.T) {
	e := NewEngine(1)
	var got []uint64
	e.At(time.Second, func() { got = append(got, 0) })
	mustPanic(t, "AtDelivery without a handler", func() { e.AtDelivery(time.Second, 9) })
	e.SetDeliveryHandler(func(key uint64) { got = append(got, key) })
	mustPanic(t, "a second delivery handler", func() { e.SetDeliveryHandler(func(uint64) {}) })
	e.AtDelivery(time.Second, 7)
	e.AtDelivery(time.Second, 3)
	e.AtDelivery(time.Millisecond, 11)
	e.Run()
	if want := []uint64{11, 3, 7, 0}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("ran %v, want %v", got, want)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
