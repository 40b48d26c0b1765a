package sim

import (
	"container/heap"
	"math/bits"
	"slices"
	"time"
)

// bucketQueue is a calendar queue: pending events are bucketed by timestamp
// onto a circular wheel of fixed-width buckets, with a binary heap holding
// only far-future overflow. Scheduling an event within the wheel's horizon
// is an O(1) append; popping drains one bucket at a time, sorting each
// bucket's handful of events once. The observable execution order is
// strictly (at, key, seq), which the queue equivalence property test asserts
// against a container/heap model on randomized traces.
//
// Geometry: buckets are 2^bucketShift nanoseconds wide (≈4.1µs) and the
// wheel has wheelSlots of them, for a horizon of ≈16.8ms — wider than any
// single network hop in the simulated topologies, so network delivery
// events always take the O(1) path, while periodic timers (seconds to
// minutes of virtual time) overflow to the heap. That is not free where
// every node keeps several: on the benchmark's `rebalance` workload (8192
// servers, three tickers a node) container/heap Pop and Push under advance
// and push are 9 % of a CPU profile's samples at 3513c42 and 11 % once the
// shaper and topic-lookup costs beside them are gone (EXPERIMENTS.md,
// "Where `rebalance`'s second goes").
// Events migrate from the heap onto the wheel as the wheel turns; each
// event pays at most one heap round-trip.
const (
	bucketShift = 12 // bucket width: 2^12 ns ≈ 4.1µs
	wheelBits   = 12
	wheelSlots  = 1 << wheelBits // 4096 buckets ≈ 16.8ms horizon
	wheelMask   = wheelSlots - 1
)

type bucketQueue struct {
	// curBucket is the highest bucket index (timestamp >> bucketShift)
	// whose events have been moved into cur. cur holds every pending event
	// with bucket ≤ curBucket, sorted by (at, seq) and consumed from
	// curHead (consumed slots are nilled to release the pointers).
	// Normally cur is exactly one bucket; it additionally absorbs events
	// scheduled "behind" curBucket, which can happen after nextAt peeked
	// ahead to an empty stretch and a caller then scheduled sooner work.
	curBucket int64
	cur       []*event
	curHead   int

	// slots[b&wheelMask] holds the events of bucket b for every pending
	// bucket b in (curBucket, curBucket+wheelSlots); within that half-open
	// window distinct buckets never collide on a slot. Events are appended
	// in schedule order and sorted only when the bucket is drained.
	slots    [wheelSlots][]*event
	occupied [wheelSlots / 64]uint64
	inWheel  int

	// overflow holds events at least a full wheel turn away, ordered by
	// (at, seq).
	overflow eventHeap
}

func newBucketQueue() *bucketQueue { return &bucketQueue{} }

func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

func (q *bucketQueue) len() int {
	return (len(q.cur) - q.curHead) + q.inWheel + len(q.overflow)
}

func (q *bucketQueue) push(ev *event) {
	b := bucketOf(ev.at)
	if b > q.curBucket && q.inWheel == 0 && len(q.overflow) == 0 && q.curHead == len(q.cur) {
		// Queue empty: jump the wheel straight to this event's bucket so the
		// next pop takes the cur path with no bitmap scan or bucket load.
		// Safe because with nothing pending, no slot in the skipped window
		// holds events and no ordering constraint spans the jump. This is
		// the steady state of a lone self-rescheduling timer.
		q.curBucket = b
		q.insertCur(ev)
		return
	}
	switch {
	case b <= q.curBucket:
		// In or before the bucket being drained: splice into cur. Such an
		// event is the earliest pending work by construction (curBucket
		// only ever advances to the globally earliest pending bucket), so
		// sorted insertion keeps the execution order exact.
		q.insertCur(ev)
	case b < q.curBucket+wheelSlots:
		s := b & wheelMask
		q.slots[s] = append(q.slots[s], ev)
		q.occupied[s>>6] |= 1 << uint(s&63)
		q.inWheel++
	default:
		heap.Push(&q.overflow, ev)
	}
}

// insertCur splices an event into the bucket currently being drained (an
// immediate or sub-bucket-width reschedule). The binary search compares the
// full (at, key, seq) order: a delivery event's key may sort it before
// already-pending same-timestamp events, so the new arrival is not
// necessarily the run's upper bound.
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
	q.cur = append(q.cur, nil)
	copy(q.cur[q.curHead+lo+1:], q.cur[q.curHead+lo:])
	q.cur[q.curHead+lo] = ev
}

// front returns the earliest pending event without removing it, advancing
// the wheel to the next occupied bucket as needed.
func (q *bucketQueue) front() *event {
	for {
		if q.curHead < len(q.cur) {
			return q.cur[q.curHead]
		}
		if q.inWheel == 0 && len(q.overflow) == 0 {
			return nil
		}
		q.advance()
	}
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

// advance moves curBucket to the earliest pending bucket — the nearer of
// the wheel's next occupied slot and the overflow heap's minimum — then
// migrates overflow events that entered the horizon and loads the bucket.
func (q *bucketQueue) advance() {
	next := int64(-1)
	if q.inWheel > 0 {
		next = q.nextOccupiedBucket()
	}
	if len(q.overflow) > 0 {
		if ovb := bucketOf(q.overflow[0].at); next < 0 || ovb < next {
			next = ovb
		}
	}
	q.curBucket = next
	// Pull every overflow event now within [curBucket, curBucket+wheelSlots)
	// onto the wheel; the heap pops in (at, seq) order and the slot is
	// sorted at load time, so arrival order is immaterial.
	for len(q.overflow) > 0 && bucketOf(q.overflow[0].at) < q.curBucket+wheelSlots {
		ev := heap.Pop(&q.overflow).(*event)
		s := bucketOf(ev.at) & wheelMask
		q.slots[s] = append(q.slots[s], ev)
		q.occupied[s>>6] |= 1 << uint(s&63)
		q.inWheel++
	}
	q.loadBucket()
}

// nextOccupiedBucket scans the occupancy bitmap one full turn starting just
// after curBucket and returns the bucket index of the first occupied slot.
// Scan order equals bucket order because all wheel-resident buckets lie in
// one window of wheelSlots. The slot's bucket index is recovered from the
// events themselves (all events in a slot share one bucket).
func (q *bucketQueue) nextOccupiedBucket() int64 {
	start := (q.curBucket + 1) & wheelMask
	// Partial first word: slots from start to the word boundary.
	if word := q.occupied[start>>6] >> uint(start&63); word != 0 {
		s := start + int64(bits.TrailingZeros64(word))
		return bucketOf(q.slots[s][0].at)
	}
	words := int64(len(q.occupied))
	for i := int64(1); i <= words; i++ {
		w := (start>>6 + i) & (words - 1)
		if q.occupied[w] != 0 {
			s := w<<6 + int64(bits.TrailingZeros64(q.occupied[w]))
			return bucketOf(q.slots[s][0].at)
		}
	}
	panic("sim: bucketQueue occupancy bitmap inconsistent with inWheel")
}

// loadBucket drains slot curBucket into cur, sorting its events into
// execution order. The previous cur backing array becomes the slot's new
// empty backing, so steady-state draining allocates nothing.
func (q *bucketQueue) loadBucket() {
	s := q.curBucket & wheelMask
	events := q.slots[s]
	q.slots[s] = q.cur[:0]
	q.occupied[s>>6] &^= 1 << uint(s&63)
	q.inWheel -= len(events)
	sortEvents(events)
	q.cur = events
	q.curHead = 0
}

// sortEvents sorts a drained bucket into execution order — strictly
// (at, key, seq). A monomorphic
// quicksort: the generic slices.SortFunc paid an indirect comparator call
// per comparison, which dominated bucket-drain cost; here before() inlines.
// Elements are unique (seq is unique), so equal keys never occur.
func sortEvents(s []*event) {
	if n := len(s); n > 1 {
		quickEvents(s, 2*bits.Len(uint(n)))
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
