package simnet

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"vbundle/internal/sim"
)

// refInbox is the inbox this one replaced, kept verbatim as the model: a ring
// in send order, membership by scanning all of it, extraction by scanning and
// compacting all of it. Production code has one inbox; this is what pins it.
type refInbox struct {
	buf  []pending // len(buf) is a power of two
	head int
	n    int
}

func (b *refInbox) slotAt(i int) *pending { return &b.buf[(b.head+i)&(len(b.buf)-1)] }

func (b *refInbox) push(p pending) {
	if b.n == len(b.buf) {
		grown := make([]pending, 2*len(b.buf))
		for i := 0; i < b.n; i++ {
			grown[i] = *b.slotAt(i)
		}
		b.buf = grown
		b.head = 0
	}
	*b.slotAt(b.n) = p
	b.n++
}

func (b *refInbox) hasDue(t time.Duration) bool {
	for i := 0; i < b.n; i++ {
		if b.slotAt(i).at == t {
			return true
		}
	}
	return false
}

func (b *refInbox) extract(t time.Duration, dst []pending) []pending {
	dst = slices.Grow(dst, b.n)
	w := 0
	for i := 0; i < b.n; i++ {
		p := b.slotAt(i)
		if p.at == t {
			dst = append(dst, *p)
		} else {
			if w != i {
				*b.slotAt(w) = *p
			}
			w++
		}
	}
	for i := w; i < b.n; i++ {
		*b.slotAt(i) = pending{} // release message references
	}
	b.n = w
	return dst
}

// TestInboxMatchesScanModel drives the due-ordered inbox and the scan model
// with the same random pushes, membership queries and flushes and holds them
// to the inbox's contract: the same answer to every hasDue, the same messages
// out of every extract — compared in delivery-key order, which is the order
// flushInbox gives a batch before any of it is delivered — and the same count
// parked after every operation. Due times come from a set of 4 values (a
// hub's rack, pod and core latencies: long runs due at one instant) or of
// 4000 (distinct send instants: runs of one or two), in ascending, descending
// or shuffled order, so pushes land at the tail, at the head and in the
// middle; the inboxes start on the two slots of a slab chunk and every seventh
// seed fills them past 8192 messages. Flushes are for the earliest due time
// parked, as the network's are, and now and then for an instant before it.
func TestInboxMatchesScanModel(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	deepest := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		values := make([]time.Duration, []int{4, 4000}[seed%2])
		for i := range values {
			values[i] = time.Duration(i+1)*time.Millisecond + time.Duration(rng.Intn(1000))
		}
		order := seed % 3 // ascending, descending, shuffled
		depth := 64
		if seed%7 == 0 {
			depth = 9000
		}
		box, engine := inbox{buf: make([]pending, inboxSlots)}, sim.NewEngine(1)
		ref := refInbox{buf: make([]pending, inboxSlots)}
		at, sent := 0, uint64(0)
		nextDue := func() time.Duration {
			switch order {
			case 0:
				at = (at + rng.Intn(3)) % len(values)
			case 1:
				at = (at + len(values) - rng.Intn(3)) % len(values)
			default:
				at = rng.Intn(len(values))
			}
			return values[at]
		}
		byKey := func(a, b pending) int {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		var got, want []pending // scratch, as the network's flushes share one
		flush := func(op int, due time.Duration) {
			got = box.extract(due, got[:0])
			want = ref.extract(due, want[:0])
			slices.SortFunc(got, byKey)
			slices.SortFunc(want, byKey)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: extract(%v) took %d messages, model %d, or not the same ones", seed, op, due, len(got), len(want))
			}
		}
		for op := 0; op < 5000; op++ {
			// Fill to the seed's depth, then hold it there: mostly pushes
			// below it, mostly flushes above.
			pushes := 8
			if ref.n >= depth {
				pushes = 2
			}
			switch r := rng.Intn(10); {
			case r < pushes:
				for i := rng.Intn(16) + 1; i > 0; i-- {
					sent++
					p := pending{at: nextDue(), key: deliveryKey(Addr(rng.Intn(64)), sent), size: int(sent), msg: sent}
					box.push(p, engine)
					ref.push(p)
				}
			case r == 9 || ref.n == 0:
				due := values[rng.Intn(len(values))] + time.Duration(rng.Intn(3)-1)*time.Duration(rng.Intn(2))
				if got, want := box.hasDue(due), ref.hasDue(due); got != want {
					t.Fatalf("seed %d op %d: hasDue(%v) = %v, model says %v", seed, op, due, got, want)
				}
			default:
				// The network's flush: the earliest due time parked — or,
				// one time in four, an instant before it, when nothing is due.
				due := ref.slotAt(0).at
				for i := 1; i < ref.n; i++ {
					due = min(due, ref.slotAt(i).at)
				}
				flush(op, due-time.Duration(rng.Intn(4)/3))
			}
			if box.n != ref.n {
				t.Fatalf("seed %d op %d: %d messages parked, model holds %d", seed, op, box.n, ref.n)
			}
			deepest = max(deepest, box.n)
		}
		for ref.n > 0 {
			flush(5000, box.slotAt(0).at)
		}
		if box.n != 0 {
			t.Fatalf("seed %d: %d messages left behind the model's last", seed, box.n)
		}
	}
	if deepest < 8192 {
		t.Fatalf("deepest inbox held %d messages, want ≥ 8192", deepest)
	}
}

// TestInboxOutgrowsChunkPrivately: an inbox that holds more than its chunk of
// the slab moves to a buffer of its own and never writes into the chunks
// beside it, and the order of delivery is the one an eight-slot inbox gives.
func TestInboxOutgrowsChunkPrivately(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, 3, flatLatency(time.Millisecond))
	got := make([][]Message, 3)
	for a := range got {
		a := a
		net.Attach(Addr(a), HandlerFunc(func(_ Addr, msg Message) { got[a] = append(got[a], msg) }))
	}
	for a := range net.inboxes {
		if b := net.inboxes[a].buf; len(b) != inboxSlots || cap(b) != inboxSlots {
			t.Fatalf("inbox %d starts with len %d cap %d, want %d and a clipped capacity", a, len(b), cap(b), inboxSlots)
		}
	}
	// The neighbours of inbox 1 in the slab each hold one parked message.
	net.Send(0, 0, "left")
	net.Send(2, 2, "right")
	left, right := net.inboxes[0].buf, net.inboxes[2].buf
	wantLeft := append([]pending(nil), left...)
	wantRight := append([]pending(nil), right...)
	chunk := net.inboxes[1].buf
	for i := 1; i <= 1000; i++ {
		net.Send(0, 1, i)
		switch i {
		case 3, 9, 1000:
			if net.inboxes[1].n != i {
				t.Fatalf("inbox 1 holds %d messages after %d sends", net.inboxes[1].n, i)
			}
			if &net.inboxes[1].buf[0] == &chunk[0] {
				t.Fatalf("after %d parked messages inbox 1 still sits in its %d-slot chunk", i, inboxSlots)
			}
			if !reflect.DeepEqual(left, wantLeft) || !reflect.DeepEqual(right, wantRight) {
				t.Fatalf("after %d parked messages a neighbouring chunk changed", i)
			}
			if &net.inboxes[0].buf[0] != &left[0] || &net.inboxes[2].buf[0] != &right[0] {
				t.Fatalf("after %d parked messages a neighbour moved out of the slab", i)
			}
		}
	}
	eng.Run()
	if !reflect.DeepEqual(got[0], []Message{"left"}) || !reflect.DeepEqual(got[2], []Message{"right"}) {
		t.Fatalf("neighbours delivered %v and %v", got[0], got[2])
	}
	if len(got[1]) != 1000 {
		t.Fatalf("inbox 1 delivered %d of 1000 messages", len(got[1]))
	}
	for k, msg := range got[1] {
		if msg != k+1 {
			t.Fatalf("delivery %d is message %v: not send order", k, msg)
		}
	}

	// The randomized schedule of TestShardedDeliveryEquivalence, once as it is
	// and once with every inbox re-seated on eight private slots, which is the
	// layout this one replaced: same deliveries, same counters.
	outgrew := false
	for seed := int64(0); seed < 12; seed++ {
		var two *Network
		ref := runShardedTraceOn(seed, 0, func(n *Network) {
			for a := range n.inboxes {
				n.inboxes[a].buf = make([]pending, 8)
			}
		})
		res := runShardedTraceOn(seed, 0, func(n *Network) { two = n })
		if !reflect.DeepEqual(res.seen, ref.seen) {
			t.Fatalf("seed %d: delivery order differs between %d-slot and 8-slot inboxes", seed, inboxSlots)
		}
		if !reflect.DeepEqual(res.counters, ref.counters) {
			t.Fatalf("seed %d: counters differ between %d-slot and 8-slot inboxes", seed, inboxSlots)
		}
		for a := range two.inboxes {
			outgrew = outgrew || len(two.inboxes[a].buf) > inboxSlots
		}
	}
	if !outgrew {
		t.Fatalf("no inbox of the randomized schedule ever held more than %d messages", inboxSlots)
	}
}

// TestFreshInboxesAllocateOnlyPooledChunks is the inbox's allocation gate:
// nodes driven past their two slab slots for the first time, one after
// another, each cost a pool chunk's share of an object. A node five messages
// deep grows into a ring of four and then of eight, both from its engine's
// pool, and banks the ring of four for the next node. Measured as the
// objects each node past 2048 adds, up to 4096, so that what a network costs
// once drops out.
func TestFreshInboxesAllocateOnlyPooledChunks(t *testing.T) {
	const small, large, depth, ceiling = 2048, 4096, 5, 0.05
	objects := func(nodes int) uint64 {
		engine := sim.NewEngine(1)
		n := New(engine, nodes+1, func(Addr, Addr) time.Duration { return time.Millisecond })
		sink := HandlerFunc(func(Addr, Message) {})
		for a := 0; a <= nodes; a++ {
			n.Attach(Addr(a), sink)
		}
		src := Addr(nodes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for dst := Addr(0); dst < src; dst++ {
			for range depth {
				n.Send(src, dst, nil) // one instant: all five park until its flush
			}
			engine.Run()
			if got := len(n.inboxes[dst].buf); got != 8 {
				t.Fatalf("node %d, %d messages deep, holds a ring of %d", dst, depth, got)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	a, b := objects(small), objects(large)
	perNode := float64(b-a) / (large - small)
	t.Logf("%d objects for %d nodes, %d for %d: %.4f a node past %d", a, small, b, large, perNode, small)
	if perNode > ceiling {
		t.Fatalf("each node first driven %d messages deep past %d costs %.4f objects; the ceiling is %v", depth, small, perNode, ceiling)
	}
}
