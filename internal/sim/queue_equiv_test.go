package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// heapModel is the reference pending-event store: container/heap over the
// engine's (at, key, seq) order, with none of the timing wheel's levels,
// cascades or current-bucket machinery. It lives here, not in the engine:
// production code has one queue, and this model is what pins its order.
type heapModel struct{ h eventHeap }

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	popped := old[n-1]
	*h = old[:n-1]
	return popped
}

func (m *heapModel) push(ev *event) { heap.Push(&m.h, ev) }

func (m *heapModel) front() *event {
	if len(m.h) == 0 {
		return nil
	}
	return m.h[0]
}

func (m *heapModel) pop() *event {
	if len(m.h) == 0 {
		return nil
	}
	return heap.Pop(&m.h).(*event)
}

// TestQueueEquivalence replays identical randomized push/peek/pop traces
// against the bucketed calendar queue and the heap model; every front, pop,
// nextAt and len must agree, event for event. The traces obey the engine's
// one scheduling rule (nothing is pushed before the clock, and the clock
// never passes a pending event) and otherwise go where the engine can go:
// delays at every scale the simulator uses and on either side of every level's
// span and slot boundaries, up to the last instant a time.Duration holds,
// same-instant bursts whose keys span all four bands — so a delivery key lands
// below, and a keyed completion above, At/AtGlobal events already pending at
// that instant — and pushes behind a cursor that an earlier peek moved ahead,
// by a cascade from any level.
func TestQueueEquivalence(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	var reached [wheelLevels]bool
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, m := newBucketQueue(), &heapModel{}
		var now time.Duration
		var seq uint64

		// Delays mix the scales the simulator really uses: sub-bucket (ns),
		// level 0 (µs..ms), levels 1 and 2 (seconds..hours) and level 3
		// (days), plus exact ties and zero delays. Two draws aim at the seams:
		// a delay of exactly one level's span give or take a bucket, and an
		// instant a bucket either side of the next multiple of a span, where
		// the cursor's digit at that level turns over. One lands within a
		// bucket of the largest instant a time.Duration holds, on level 4;
		// once the clock has reached it, every later push is saturated there.
		const bucket = time.Duration(1) << bucketShift
		const maxTime = time.Duration(math.MaxInt64)
		// span is defined for levels 0–3: level 4's exceeds a time.Duration.
		span := func(level int) time.Duration { return bucket << (wheelBits * (level + 1)) }
		nearby := func() time.Duration { return time.Duration(rng.Intn(3)-1)*bucket + time.Duration(rng.Intn(3)-1) }
		later := func(d time.Duration) time.Duration { return now + min(d, maxTime-now) }
		upTo := func(d time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(min(d, maxTime-1)) + 1)) }
		randDelay := func() time.Duration {
			switch rng.Intn(10) {
			case 0:
				return 0
			case 1:
				return time.Duration(rng.Intn(4096)) // inside one bucket
			case 2:
				return time.Duration(rng.Intn(1e6)) // µs..ms, within level 0
			case 3:
				return time.Duration(rng.Intn(50)) * time.Millisecond // ties likely
			case 4:
				return time.Duration(rng.Intn(120)) * time.Second // levels 1 and 2
			case 5:
				return time.Duration(rng.Int63n(int64(10 * time.Minute)))
			case 6:
				return time.Duration(rng.Int63n(int64(60 * time.Hour))) // deep in level 2
			case 7:
				if rng.Intn(8) == 0 {
					return max(0, maxTime-now-time.Duration(rng.Intn(int(bucket)))) // the last bucket of time
				}
				return span(2) + time.Duration(rng.Int63n(int64(400*24*time.Hour))) // days past level 2
			case 8:
				return span(rng.Intn(wheelLevels-1)) + nearby()
			default:
				s := span(rng.Intn(wheelLevels - 1))
				return max(0, (now/s+1)*s+nearby()-now)
			}
		}
		// Keys as the engine builds them. Payloads come from a small range so
		// equal keys (decided by seq alone) are as common as distinct ones.
		randKey := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return keyDelivery | uint64(rng.Intn(8))
			case 1:
				return keyLocal
			case 2:
				return keyGlobal
			default:
				return keyKeyed | uint64(rng.Intn(8))
			}
		}
		push := func(at time.Duration, key uint64) {
			seq++
			ev := &event{at: at, key: key, seq: seq}
			q.push(ev)
			m.push(ev)
		}
		pop := func() bool {
			want := m.pop()
			if got := q.pop(); got != want {
				t.Fatalf("seed %d: pop = %+v, heap model says %+v", seed, got, want)
			}
			if want == nil {
				return false
			}
			now = want.at
			return true
		}

		for op := 0; op < 2000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				push(later(randDelay()), randKey())
			case 4: // same-instant burst across the key bands
				at := later(randDelay())
				for i := rng.Intn(6) + 2; i > 0; i-- {
					push(at, randKey())
				}
			case 5, 6:
				for i := rng.Intn(8); i > 0 && pop(); i-- {
				}
			case 7:
				if got, want := q.front(), m.front(); got != want {
					t.Fatalf("seed %d: front = %+v, heap model says %+v", seed, got, want)
				}
			case 8:
				// RunUntil short of the next event: the peek turns the wheel
				// to that event's bucket, the clock stops somewhere before it,
				// and later pushes land behind the wheel position.
				at, ok := q.nextAt()
				if want := m.front(); ok != (want != nil) || (ok && at != want.at) {
					t.Fatalf("seed %d: nextAt = %v, %v, heap model says %+v", seed, at, ok, want)
				}
				if ok && at > now {
					now += upTo(at - now)
					// Sooner work, straight away: between the clock and the
					// peeked event, so behind the cursor whichever level the
					// peek cascaded from.
					for i := rng.Intn(3); i > 0; i-- {
						push(now+upTo(at-now), randKey())
					}
				}
			case 9:
				if got, want := q.len(), len(m.h); got != want {
					t.Fatalf("seed %d: len = %d, heap model says %d", seed, got, want)
				}
			}
		}
		for pop() {
		}
		for k, w := range q.levels {
			reached[k] = reached[k] || w != nil
		}
	}
	// A level is made when its first event arrives and kept, so one left nil
	// by every seed is one no trace ever placed an event on.
	for k, ok := range reached {
		if !ok {
			t.Errorf("no trace placed an event on level %d", k)
		}
	}
}

// TestBucketQueueOverflowMigration pins the boundary between level 0 and the
// levels above: events far beyond level 0's span must still run in timestamp
// order, including events scheduled behind an already-peeked empty stretch.
func TestBucketQueueOverflowMigration(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	record := func() { got = append(got, e.Now()) }
	// Far future (level 2), near future (level 0), and same bucket.
	e.After(10*time.Minute, record)
	e.After(time.Millisecond, record)
	e.After(1, record)
	// Peek far ahead via RunUntil past all level-0 events, then schedule
	// earlier than the remaining level-2 event.
	e.RunUntil(time.Second)
	e.After(time.Second, record) // at 2s, before the 10-minute event
	e.Run()
	want := []time.Duration{1, time.Millisecond, 2 * time.Second, 10 * time.Minute}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}
