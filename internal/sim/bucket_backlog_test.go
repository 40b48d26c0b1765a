package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestBucketQueueMillionEventBacklog is the memory-regression property test
// for the timing wheel's upper levels: a backlog of ≥1M pending events
// whose timestamps span minutes of virtual time, so the ~16.8ms span of
// level 0 sends the vast majority to levels 1 and 2 and back down as the
// cursor reaches their slots. The property is the queue's one contract — pops
// come out in strict (at, key, seq) order — checked across interleaved
// push/pop phases, plus full-drain accounting (every event out exactly
// once). Earlier engines kept the whole backlog in one binary heap, and then
// all of it beyond 16.8 ms; this pins the levels at the backlog size where
// that design's per-event log factor became the simulator's dominant cost.
func TestBucketQueueMillionEventBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event backlog; run without -short")
	}
	rng := rand.New(rand.NewSource(11))
	q := newBucketQueue()
	const total = 1 << 20
	var seq uint64
	push := func(at time.Duration) {
		seq++
		q.push(&event{at: at, key: rng.Uint64() & 3, seq: seq})
	}
	// Random timestamp strictly after base, within 4 minutes: minutes-scale
	// spread means nearly every event starts at least one full wheel turn
	// away. Strictly-after mirrors the engine, which never schedules into
	// the past; a push at or before the event being drained takes the
	// splice-into-cur path, whose sorted insert is only cheap for the rare
	// peeked-ahead case it exists for.
	randAt := func(base time.Duration) time.Duration {
		return base + 1 + time.Duration(rng.Int63n(int64(4*time.Minute)))
	}

	// Phase 1: build the full backlog. The time-0 anchor keeps the wheel at
	// bucket 0 (an empty queue jumps its wheel to the first push's bucket;
	// from a random minutes-deep bucket, every earlier event would splice
	// into cur instead of exercising the wheels).
	push(0)
	for i := 1; i < total; i++ {
		push(randAt(0))
	}
	if got := q.len(); got != total {
		t.Fatalf("backlog holds %d events, want %d", got, total)
	}
	above := 0
	for _, w := range q.levels[1:] {
		if w == nil {
			continue // levels 3 and 4: nothing here is hours ahead
		}
		for _, slot := range w.slots {
			above += len(slot)
		}
	}
	if above < total*9/10 {
		t.Fatalf("%d events sit above level 0, want ≥%d — the backlog is not exercising the cascade",
			above, total*9/10)
	}

	// Phase 2: drain half while pushing fresh events at or after the drain
	// point (the engine never schedules in the past), so cascades out of
	// the upper levels and new arrivals into them interleave.
	var prev *event
	pops := 0
	check := func(ev *event) {
		if ev == nil {
			t.Fatalf("queue empty after %d pops, len reports %d", pops, q.len())
		}
		if prev != nil && !prev.before(ev) {
			t.Fatalf("pop %d out of order: (%d,%d,%d) then (%d,%d,%d)",
				pops, prev.at, prev.key, prev.seq, ev.at, ev.key, ev.seq)
		}
		prev = ev
		pops++
	}
	for i := 0; i < total/2; i++ {
		ev := q.pop()
		check(ev)
		if i%8 == 0 {
			push(randAt(ev.at))
		}
	}

	// Phase 3: full drain.
	for q.len() > 0 {
		check(q.pop())
	}
	if want := total + total/16; pops != want {
		t.Fatalf("drained %d events, want %d", pops, want)
	}
	if ev := q.pop(); ev != nil {
		t.Fatalf("pop on empty queue returned event at %v", ev.at)
	}
}

// TestCurStaysTheSizeOfItsRun: work scheduled behind a cursor that a peek
// moved ahead is spliced into cur and consumed from its front while the peeked
// event waits at its end. However many events pass through, cur holds the few
// that are pending at once, not a slot for each that ever was: a serving run
// of 400 k events once left 3.6 MB of consumed slots behind one drain timer.
func TestCurStaysTheSizeOfItsRun(t *testing.T) {
	q := newBucketQueue()
	var seq uint64
	push := func(at time.Duration) {
		seq++
		q.push(&event{at: at, key: keyLocal, seq: seq})
	}
	push(time.Hour)
	if at, ok := q.nextAt(); !ok || at != time.Hour {
		t.Fatalf("nextAt = %v, %v", at, ok)
	}
	const pending = 4
	for i := 1; i <= 100000; i++ {
		push(time.Duration(i) * time.Microsecond)
		if i <= pending {
			continue
		}
		if ev, want := q.pop(), time.Duration(i-pending)*time.Microsecond; ev.at != want {
			t.Fatalf("pop %d is due at %v, want %v", i, ev.at, want)
		}
	}
	if got := cap(q.cur); got > 4*(pending+1) {
		t.Fatalf("cur has room for %d events with %d pending", got, q.len())
	}
}

// TestPeriodicTimersAllocateNothing: once warm, a round of 4096 tickers on the
// paper's 5-minute update period allocates nothing. Each round's burst waits
// in a different slot of levels 2, 1 and 0 than the last one's (300 s is no
// multiple of any slot width), so a cascade that dropped the backing of the
// slot it emptied, or left it behind in the slot, would have the next round
// grow a new one.
func TestPeriodicTimersAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	const period = 5 * time.Minute
	ticks := 0
	for i := 0; i < 4096; i++ {
		e.Every(period, func() { ticks++ })
	}
	e.RunFor(3 * period)
	if allocs := testing.AllocsPerRun(20, func() { e.RunFor(period) }); allocs != 0 {
		t.Fatalf("a warm round of 4096 tickers allocates %v objects, want 0", allocs)
	}
	if want := 4096 * (3 + 21); ticks != want {
		t.Fatalf("%d ticks, want %d", ticks, want)
	}
}
