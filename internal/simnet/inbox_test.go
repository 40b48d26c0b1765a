package simnet

import (
	"reflect"
	"testing"
	"time"

	"vbundle/internal/sim"
)

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
