package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// every starts a node-band ticker running fn: EveryGlobal in the node band.
func every(e *Engine, interval time.Duration, fn func()) *Ticker {
	f := &funcTicker{e: e, every: interval, fn: fn}
	f.t.Start(f)
	return &f.t
}

// closureTicker is the ticker this package had before Ticker became an
// embeddable handler, kept as the model the restart test holds Ticker to: a
// fresh one a start, each tick a closure, a stopped one's queued tick a
// no-op.
type closureTicker struct{ stopped bool }

func startClosureTicker(interval time.Duration, fn func(), schedule func(time.Duration, func())) *closureTicker {
	t := &closureTicker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			schedule(interval, tick)
		}
	}
	schedule(interval, tick)
	return t
}

// tickerStep is one scripted action: at a time, or inside the n-th tick.
type tickerStep struct {
	at       time.Duration // scheduled at set-up, in script order
	inTick   int           // > 0: run inside this firing instead
	later    bool          // with inTick: run in the tick's instant, after it
	deferBy  time.Duration // with at: scheduled from at, to run deferBy later
	stop     bool
	start    time.Duration // > 0: (re)start with this interval
	again    time.Duration // > 0: then stop and restart with this one
	markNext time.Duration // > 0: schedule a mark this far ahead
}

// runTickerScript plays script against either ticker and logs every firing
// and mark with its instant, in execution order.
func runTickerScript(e *Engine, global, model bool, script []tickerStep) []string {
	var log []string
	now := func() time.Duration { return e.Root().Now() }
	at, after := e.At, e.After
	if global {
		at, after = e.AtGlobal, e.AfterGlobal
	}
	tk := funcTicker{e: e}
	var m *closureTicker
	fired := 0
	var fire func()
	start := func(interval time.Duration) {
		switch {
		case model && (m == nil || m.stopped):
			m = startClosureTicker(interval, fire, after)
		case !model && !tk.t.Running():
			tk.every = interval
			if global {
				tk.t.StartGlobal(&tk)
			} else {
				tk.t.Start(&tk)
			}
		}
	}
	var do func(s tickerStep)
	do = func(s tickerStep) {
		if s.stop {
			if model {
				m.stopped = true
			} else {
				tk.t.Stop()
			}
		}
		if s.start > 0 {
			start(s.start)
		}
		if s.again > 0 {
			do(tickerStep{stop: true, start: s.again})
		}
		if s.markNext > 0 {
			after(s.markNext, func() { log = append(log, fmt.Sprintf("%v mark", now())) })
		}
	}
	fire = func() {
		fired++
		log = append(log, fmt.Sprintf("%v tick", now()))
		for _, s := range script {
			switch {
			case s.inTick == fired && s.later:
				after(0, func() { do(s) })
			case s.inTick == fired:
				do(s)
			}
		}
	}
	tk.fn = fire
	start(10 * time.Millisecond)
	for _, s := range script {
		switch {
		case s.inTick == 0 && s.deferBy > 0:
			at(s.at, func() { after(s.deferBy, func() { do(s) }) })
		case s.inTick == 0:
			at(s.at, func() { do(s) })
		}
	}
	e.RunUntil(100 * time.Millisecond)
	if model {
		m.stopped = true
	} else {
		tk.t.Stop()
	}
	e.Run()
	return log
}

// TestTickerRestartFiresOnce holds an embedded Ticker to the fresh-ticker-a-
// start model through stops and restarts: before a stale tick is due, in
// the instant of a tick (before it and after it, with other work scheduled
// for the next tick's instant in between), with a shorter interval than the
// stale tick's, and from inside a tick. A stale tick never fires, every
// interval fires once, and same-instant order matches the model's, in the
// node band and in the global band of a serial engine and of a two-shard root.
func TestTickerRestartFiresOnce(t *testing.T) {
	const ms = time.Millisecond
	scripts := map[string][]tickerStep{
		"restart before the stale tick": {
			{at: 15 * ms, stop: true}, {at: 17 * ms, start: 10 * ms},
		},
		"restart after a tick, same instant": {
			{inTick: 2, later: true, markNext: 10 * ms}, {inTick: 2, later: true, stop: true, start: 10 * ms},
		},
		"restart after a tick, same instant, scheduled earlier": {
			{at: 15 * ms, deferBy: 5 * ms, markNext: 10 * ms},
			{at: 15 * ms, deferBy: 5 * ms, stop: true, start: 10 * ms},
			{at: 15 * ms, deferBy: 5 * ms, stop: true, start: 10 * ms},
		},
		"restart in the instant of a tick, before it": {
			{at: 19 * ms}, {at: 20 * ms, stop: true, start: 10 * ms, markNext: 10 * ms},
		},
		"restart twice before the stale ticks": {
			{at: 12 * ms, stop: true, start: 10 * ms}, {at: 12 * ms, stop: true, start: 10 * ms},
			{at: 13 * ms, stop: true, start: 10 * ms},
		},
		"restart twice in one event": {
			{at: 12 * ms, stop: true, start: 10 * ms, again: 5 * ms},
		},
		"restart with a shorter interval": {
			{at: 12 * ms, stop: true, start: 5 * ms}, {at: 12 * ms, markNext: 8 * ms},
		},
		"stop inside a tick": {
			{inTick: 3, stop: true},
		},
		"restart inside a tick": {
			{inTick: 2, markNext: 10 * ms}, {inTick: 2, stop: true, start: 10 * ms},
			{inTick: 4, stop: true, start: 3 * ms},
		},
		"stop, then restart later": {
			{at: 25 * ms, stop: true}, {at: 50 * ms, start: 10 * ms},
		},
	}
	engines := []struct {
		name   string
		global bool
		make   func() *Engine
	}{
		{"node band", false, func() *Engine { return NewEngine(1) }},
		{"global band", true, func() *Engine { return NewEngine(1) }},
		{"global band, two shards", true, func() *Engine {
			r := NewShardedEngine(1, 2)
			r.SetLookahead(ms)
			return r
		}},
	}
	for name, script := range scripts {
		for _, eng := range engines {
			want := runTickerScript(eng.make(), eng.global, true, script)
			got := runTickerScript(eng.make(), eng.global, false, script)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %s:\n got %v\nwant %v", name, eng.name, got, want)
			}
			seen := map[string]bool{}
			for _, line := range want {
				if seen[line] {
					t.Errorf("%s, %s: the model logs %q twice", name, eng.name, line)
				}
				seen[line] = true
			}
		}
	}
}

// TestHandlerEventsAllocateNothing: a func() becomes a Handler without an
// allocation, and on a warm engine a handler event and a ticker's start and
// stop allocate nothing.
func TestHandlerEventsAllocateNothing(t *testing.T) {
	fn := func() {}
	var h Handler
	if n := testing.AllocsPerRun(100, func() { h = funcHandler(fn) }); n != 0 {
		t.Fatalf("converting a func() to a Handler allocates %v objects", n)
	}
	e := NewEngine(1)
	tk := funcTicker{e: e, every: time.Second, fn: fn}
	warm := func() {
		e.AfterHandler(time.Second, h)
		tk.t.Start(&tk)
		tk.t.Stop()
		e.Run()
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("a handler event and a ticker's start and stop allocate %v objects", n)
	}
}
