package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineSchedule measures the schedule→pop cycle of the event loop
// in steady state, the innermost cost of every simulated message. With the
// event free-list the per-event allocation disappears once the queue has
// reached its working size.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%64)*time.Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTimerChain measures a self-rescheduling callback (the shape
// of every Ticker and maintenance loop): each pop immediately reuses its
// event for the next tick.
func BenchmarkEngineTimerChain(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(time.Millisecond, tick)
	e.Run()
}
