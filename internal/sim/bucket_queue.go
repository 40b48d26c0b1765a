package sim

import (
	"math/bits"
	"slices"
	"time"
)

// bucketQueue is a levelled timing wheel: pending events sit in slots indexed
// by the digits of their bucket number, scheduling is an O(1) append at every
// horizon, and only the bucket being drained is ever sorted. The observable
// execution order is strictly (at, key, seq), which the queue equivalence
// property test asserts against a binary-heap model on randomized traces.
//
// Geometry. A bucket is 2^bucketShift ns of virtual time (≈4.1µs); its number
// is read as base-4096 digits, one wheel per digit:
//
//	level   slot width          slots   span
//	0       2^12 ns ≈ 4.1 µs    4096    ≈ 16.8 ms
//	1       2^24 ns ≈ 16.8 ms   4096    ≈ 68.7 s
//	2       2^36 ns ≈ 68.7 s    4096    ≈ 78 h
//	3       2^48 ns ≈ 78 h      4096    ≈ 36.5 years
//	4       2^60 ns ≈ 36.5 y    8 used  2^63 ns, every time.Duration
//
// A bucket number has 51 bits, so five digits place every representable
// instant on a wheel.
//
// An event whose bucket b lies ahead of the cursor goes to level k, the
// position of the highest digit in which b and curBucket differ, at slot
// digit k of b. Placement invariant: every event on level k agrees with the
// cursor on all digits above k and has a larger digit k. So occupied slots
// never wrap behind the cursor, slot order within a level is time order, and
// everything on level k is due before anything on level k+1: the next event
// is in the first occupied slot of the lowest non-empty level.
//
// Cascade invariant. When that slot is on level k > 0 the cursor moves to the
// slot's first bucket — digit k taken from the slot, the digits below zero —
// and the slot's events are placed again. They now agree with the cursor on
// digit k as well, so each lands at least one level down (or in cur, if due in
// the cursor's own bucket) in the order it was appended. An event is therefore
// appended at most once per level and sorted once, in its level-0 bucket; a
// burst of periodic timers reaches that bucket in the order it was scheduled,
// which is already execution order, and sortEvents finds that in one pass.
//
// Backings. An empty slot holds no memory. Slot and cur backings come from
// and return to a pool by size class (up to 1 KB a Pool, whose chunks hold
// many backings an allocation, and spare above), so a slot that grows takes
// the backing some drained slot left behind and nothing is dropped and
// regrown: a warm queue allocates nothing, whatever the timers' periods
// (TestPeriodicTimersAllocateNothing), and holds what its fullest instant
// needed, not what each slot ever saw.
const (
	bucketShift = 12 // bucket width: 2^12 ns ≈ 4.1µs
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits // 4096 slots a level
	wheelMask   = wheelSlots - 1
	wheelLevels = 5

	// minBacking is the smallest backing the pool makes, in events.
	minBacking = 4
)

// wheel is one level: slot s holds the pending events whose digit at this
// level is s, in the order they were appended.
type wheel struct {
	slots    [wheelSlots][]*event
	occupied [wheelSlots / 64]uint64
}

type bucketQueue struct {
	// curBucket is the cursor: every pending event with bucket ≤ curBucket is
	// in cur, sorted by (at, key, seq) and consumed from curHead (consumed
	// entries are nilled to release the pointers); every other pending event
	// is on a wheel. Normally cur is exactly one bucket; it
	// additionally absorbs events scheduled "behind" curBucket, which can
	// happen after nextAt peeked ahead to an empty stretch and a caller then
	// scheduled sooner work.
	curBucket int64
	cur       []*event
	curHead   int

	// levels holds the wheels, each made when its first event arrives: an
	// engine that sets no timer beyond a span never pays for the level above
	// (a wheel is ≈ 99 KB).
	levels  [wheelLevels]*wheel
	inWheel int

	// pool lends slots and cur their backings up to poolMaxBytes, carved
	// from its chunks, and banks them again; spare[c] holds the idle larger
	// backings of capacity 2^c, all entries nil, which the pool would let
	// go. 2^48 pointers are more than an address space holds.
	pool  Pool[*event]
	spare [48][][]*event
}

func newBucketQueue() *bucketQueue { return &bucketQueue{} }

func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

func (q *bucketQueue) len() int {
	return (len(q.cur) - q.curHead) + q.inWheel
}

func (q *bucketQueue) push(ev *event) {
	b := bucketOf(ev.at)
	switch {
	case b <= q.curBucket:
		// In or before the bucket being drained: splice into cur. Such an
		// event is due before everything on the wheels by construction
		// (curBucket never passes the globally earliest pending bucket), so
		// sorted insertion keeps the execution order exact.
		q.insertCur(ev)
	case q.len() == 0:
		// Queue empty: jump the cursor straight to this event's bucket so the
		// next pop takes the cur path with no bitmap scan or bucket load.
		// Safe because with nothing pending, no slot in the skipped stretch
		// holds events and no ordering constraint spans the jump. This is
		// the steady state of a lone self-rescheduling timer.
		q.curBucket = b
		q.insertCur(ev)
	default:
		q.place(b, ev)
	}
}

// place files an event of bucket b > curBucket on the level of the highest
// digit in which b differs from the cursor.
func (q *bucketQueue) place(b int64, ev *event) {
	k := (bits.Len64(uint64(b^q.curBucket)) - 1) / wheelBits
	w := q.levels[k]
	if w == nil {
		w = new(wheel)
		q.levels[k] = w
	}
	s := b >> (k * wheelBits) & wheelMask
	w.slots[s] = q.add(w.slots[s], ev)
	w.occupied[s>>6] |= 1 << uint(s&63)
	q.inWheel++
}

// settle files an event the cursor has just moved towards: in cur, unsorted,
// when it is due in the cursor's own bucket (advance sorts cur once all have
// settled), else on a wheel.
func (q *bucketQueue) settle(ev *event) {
	if b := bucketOf(ev.at); b == q.curBucket {
		q.cur = q.add(q.cur, ev)
	} else {
		q.place(b, ev)
	}
}

// insertCur splices an event into the bucket currently being drained (an
// immediate or sub-bucket-width reschedule, or work scheduled behind a cursor
// that a peek moved ahead). The binary search compares the full
// (at, key, seq) order: a delivery event's key may sort it before
// already-pending same-timestamp events, so the new arrival is not
// necessarily the run's upper bound. Whichever side of the insertion point is
// shorter moves: the later side towards the tail, or the earlier side into
// the slot the last pop vacated — which is where an event lands that runs
// next while a burst of thousands waits behind it, and costs it nothing.
func (q *bucketQueue) insertCur(ev *event) {
	if q.curHead == len(q.cur) {
		// Fully drained: reclaim the consumed prefix instead of growing.
		q.cur = q.cur[:0]
		q.curHead = 0
	}
	run := q.cur[q.curHead:]
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if run[mid].before(ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if q.curHead > 0 && lo < len(run)-lo {
		q.curHead--
		copy(q.cur[q.curHead:], run[:lo])
	} else {
		if len(q.cur) == cap(q.cur) && q.curHead >= len(run) {
			// Full, and most of it consumed: slide the run back to the front
			// instead of growing, or cur would come to hold a slot for every
			// event that ever passed through it ahead of one that waits.
			n := copy(q.cur, run)
			clear(q.cur[n:])
			q.cur, q.curHead = q.cur[:n], 0
		}
		q.cur = q.add(q.cur, nil)
		copy(q.cur[q.curHead+lo+1:], q.cur[q.curHead+lo:])
	}
	q.cur[q.curHead+lo] = ev
}

// front returns the earliest pending event without removing it, advancing
// the cursor to the next occupied bucket as needed.
func (q *bucketQueue) front() *event {
	for q.curHead == len(q.cur) {
		if q.inWheel == 0 {
			return nil
		}
		q.advance()
	}
	return q.cur[q.curHead]
}

func (q *bucketQueue) pop() *event {
	ev := q.front()
	if ev == nil {
		return nil
	}
	q.cur[q.curHead] = nil
	q.curHead++
	return ev
}

func (q *bucketQueue) nextAt() (time.Duration, bool) {
	ev := q.front()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// advance moves the cursor, cur fully consumed, to the first occupied slot of
// the lowest non-empty level and opens it: a level-0 slot becomes cur, a
// higher one cascades and may leave cur empty, in which case front advances
// again, at least one level lower each time.
func (q *bucketQueue) advance() {
	q.curHead = 0
	for k, w := range q.levels {
		if w == nil {
			continue
		}
		shift := uint(k * wheelBits)
		s := w.next(q.curBucket>>shift&wheelMask + 1)
		if s < 0 {
			continue
		}
		// Digits above k stay, digit k is the slot's, the digits below are zero.
		q.curBucket = q.curBucket&^(1<<(shift+wheelBits)-1) | s<<shift
		events := w.slots[s]
		w.slots[s] = nil
		w.occupied[s>>6] &^= 1 << uint(s&63)
		q.inWheel -= len(events)
		if k == 0 {
			q.release(q.cur)
			q.cur = events
		} else {
			q.cur = q.cur[:0]
			for _, ev := range events {
				q.settle(ev)
			}
			q.release(events)
		}
		sortEvents(q.cur)
		return
	}
	panic("sim: timing wheel holds events in no slot ahead of the cursor")
}

// next returns the first occupied slot at or after from, or -1.
func (w *wheel) next(from int64) int64 {
	if from >= wheelSlots {
		return -1
	}
	i := from >> 6
	word := w.occupied[i] &^ (1<<uint(from&63) - 1)
	for word == 0 {
		if i++; i == int64(len(w.occupied)) {
			return -1
		}
		word = w.occupied[i]
	}
	return i<<6 + int64(bits.TrailingZeros64(word))
}

// add appends ev to a slot's (or cur's) events, moving them to a larger
// backing first when the one they have is full.
func (q *bucketQueue) add(s []*event, ev *event) []*event {
	if len(s) == cap(s) {
		s = q.grow(s)
	}
	return append(s, ev)
}

// grow moves a full slot's events to a backing of twice the capacity, from
// spare if it has one, else from the pool, which makes one over its largest
// class, and gives the old one back.
func (q *bucketQueue) grow(s []*event) []*event {
	size := max(2*cap(s), minBacking)
	c := bits.Len(uint(size)) - 1
	var grown []*event
	if n := len(q.spare[c]); n > 0 {
		grown = q.spare[c][n-1]
		q.spare[c] = q.spare[c][:n-1]
	} else {
		grown = q.pool.Get(size)
	}
	grown = grown[:len(s)]
	copy(grown, s)
	q.release(s)
	return grown
}

// release returns a backing whose events have moved on to the pool, or to
// spare when the pool would not keep it.
func (q *bucketQueue) release(s []*event) {
	if cap(s) == 0 {
		return
	}
	if q.pool.Keeps(cap(s)) {
		q.pool.Put(s)
		return
	}
	clear(s)
	c := bits.Len(uint(cap(s))) - 1
	q.spare[c] = append(q.spare[c], s[:0])
}

// sortEvents sorts a drained bucket into execution order — strictly
// (at, key, seq) — unless one pass finds it there already, as it does a bucket
// that holds one event or one burst of timers in the order they were set. A
// monomorphic quicksort: the generic slices.SortFunc paid an indirect
// comparator call per comparison, which dominated bucket-drain cost; here
// before() inlines. Elements are unique (seq is unique), so equal keys never
// occur.
func sortEvents(s []*event) {
	for i := 1; i < len(s); i++ {
		if s[i].before(s[i-1]) {
			quickEvents(s, 2*bits.Len(uint(len(s))))
			return
		}
	}
}

func insertionEvents(s []*event) {
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := i - 1
		for j >= 0 && ev.before(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = ev
	}
}

// quickEvents is a median-of-three Lomuto quicksort recursing on the smaller
// partition, with insertion sort below 16 elements and a depth-limit
// fallback to slices.SortFunc so pathological inputs stay O(n log n).
func quickEvents(s []*event, limit int) {
	for len(s) > 16 {
		if limit == 0 {
			slices.SortFunc(s, func(a, b *event) int {
				if a.before(b) {
					return -1
				}
				return 1
			})
			return
		}
		limit--
		p := partitionEvents(s)
		if p < len(s)-p {
			quickEvents(s[:p], limit)
			s = s[p+1:]
		} else {
			quickEvents(s[p+1:], limit)
			s = s[:p]
		}
	}
	insertionEvents(s)
}

// partitionEvents moves the median of s[0], s[mid], s[n-1] into pivot
// position and Lomuto-partitions around it, returning the pivot's final
// index (elements before it sort before the pivot, elements after sort
// after, so both sides exclude it and recursion always makes progress).
func partitionEvents(s []*event) int {
	n := len(s)
	m := n / 2
	if s[m].before(s[0]) {
		s[0], s[m] = s[m], s[0]
	}
	if s[n-1].before(s[m]) {
		s[m], s[n-1] = s[n-1], s[m]
		if s[m].before(s[0]) {
			s[0], s[m] = s[m], s[0]
		}
	}
	s[m], s[n-1] = s[n-1], s[m]
	pivot := s[n-1]
	i := 0
	for j := 0; j < n-1; j++ {
		if s[j].before(pivot) {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[n-1] = s[n-1], s[i]
	return i
}
