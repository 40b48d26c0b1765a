package sim

import (
	"runtime"
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

// BenchmarkEnginePeriodicTimers measures the queue under the shuffling loop's
// timers and nothing else: 8192 servers with three tickers each, at 1, 5 and
// 25 minutes of virtual time, every ticker of a period due at one instant. An
// iteration is 25 virtual minutes, 31 ticks a server.
func BenchmarkEnginePeriodicTimers(b *testing.B) {
	e := NewEngine(1)
	ticks := 0
	for i := 0; i < 8192; i++ {
		for _, period := range []time.Duration{time.Minute, 5 * time.Minute, 25 * time.Minute} {
			every(e, period, func() { ticks++ })
		}
	}
	e.RunFor(25 * time.Minute)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunFor(25 * time.Minute)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(ticks), "allocs/tick")
}
