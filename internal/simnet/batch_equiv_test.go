package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vbundle/internal/sim"
)

// sendPerMessage is the reference delivery scheme batching is checked
// against: Send's accounting and drop draw, then one engine event per message
// — keyed by (source, send index) on the public Engine.AtKeyed (the delivery
// band has one handler an engine, and the network is it) — that checks
// liveness and counts the receipt when it fires. No inbox, no flush, no sort.
// Keyed events run after an instant's timers where deliveries run before
// them; nothing a timer of these traces does reads a delivery. Serial engines
// and the base drop rate only, which is all the equivalence traces use.
func sendPerMessage(n *Network, src, dst Addr, msg Message) {
	size := WireSize(msg)
	if !n.nodes[src].alive {
		return
	}
	n.counters[src].MsgsSent++
	n.counters[src].BytesSent += size
	idx := n.sendSeq[src]
	n.sendSeq[src]++
	if n.dropRate > 0 && n.dropDraw(src, idx) < n.dropRate {
		return
	}
	n.engine.AtKeyed(n.engine.Now()+n.latency(src, dst), deliveryKey(src, idx), func() {
		s := n.nodes[dst]
		if !s.alive {
			return
		}
		n.counters[dst].MsgsReceived++
		n.counters[dst].BytesReceived += size
		s.handler.HandleMessage(src, msg)
	})
}

// sendFunc is one of the two delivery schemes under comparison.
type sendFunc func(n *Network, src, dst Addr, msg Message)

var deliverySchemes = []struct {
	name string
	send sendFunc
}{
	{"batched", (*Network).Send},
	{"per-message", sendPerMessage},
}

// rxLog records per-node delivery sequences. Per-destination delivery order
// is an invariant both delivery schemes guarantee (messages due at one node
// at one instant arrive in send order), so the equivalence tests compare each
// node's sequence exactly.
type rxLog struct {
	eng   *sim.Engine
	seen  [][]string
	onMsg func(dst Addr, msg Message) // optional per-delivery hook
}

func newRxLog(eng *sim.Engine, size int) *rxLog {
	return &rxLog{eng: eng, seen: make([][]string, size)}
}

func (l *rxLog) handler(dst Addr) Handler {
	return HandlerFunc(func(from Addr, msg Message) {
		l.seen[dst] = append(l.seen[dst],
			fmt.Sprintf("%v:%d:%v", l.eng.Now(), from, msg))
		if l.onMsg != nil {
			l.onMsg(dst, msg)
		}
	})
}

// runDeliveryTrace drives one network through a pseudo-random trace of
// sends, kills and revives. The trace generator uses its own rand.Rand so
// both delivery schemes execute byte-identical send sequences (send order is
// fixed by the trace's timer events, which never depend on deliveries), and
// therefore draw byte-identical drop decisions.
// Kill/revive times carry a +1ns offset while all deliveries land on exact
// microsecond multiples, so liveness flips never tie with deliveries — the
// one interleaving batching does not preserve (a liveness flip whose
// timestamp exactly equals a delivery's may order differently relative to
// mid-batch messages; see the Network doc comment).
func runDeliveryTrace(seed int64, send sendFunc) (*rxLog, []Counters) {
	const size = 12
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(99)
	latency := func(a, b Addr) time.Duration {
		return time.Duration((int(a)*7+int(b)*13)%23+1) * 10 * time.Microsecond
	}
	net := New(eng, size, latency, WithDropRate(0.25))
	log := newRxLog(eng, size)
	for i := 0; i < size; i++ {
		net.Attach(Addr(i), log.handler(Addr(i)))
	}
	for op := 0; op < 400; op++ {
		at := time.Duration(rng.Intn(3000)) * 10 * time.Microsecond
		switch rng.Intn(8) {
		case 0: // liveness flip, offset off the delivery grid
			target := Addr(rng.Intn(size))
			if rng.Intn(2) == 0 {
				eng.At(at+1, func() { net.Kill(target) })
			} else {
				eng.At(at+1, func() { net.Revive(target) })
			}
		default: // burst of sends at one instant (ties are the common case)
			k := rng.Intn(4) + 1
			pairs := make([][2]Addr, k)
			for i := range pairs {
				pairs[i] = [2]Addr{Addr(rng.Intn(size)), Addr(rng.Intn(size))}
			}
			tag := op
			eng.At(at, func() {
				for i, p := range pairs {
					send(net, p[0], p[1], fmt.Sprintf("m%d.%d", tag, i))
				}
			})
		}
	}
	eng.Run()
	return log, net.AllCounters()
}

// TestDeliveryModeEquivalence replays identical randomized traces — sends,
// drops (25%), kills and revives — through batched and per-message delivery.
// Every node's delivery sequence and every traffic counter must be
// byte-identical.
func TestDeliveryModeEquivalence(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		batched, bc := runDeliveryTrace(seed, (*Network).Send)
		perMsg, pc := runDeliveryTrace(seed, sendPerMessage)
		for node := range batched.seen {
			b, p := batched.seen[node], perMsg.seen[node]
			if len(b) != len(p) {
				t.Fatalf("seed %d node %d: batched delivered %d msgs, per-message %d",
					seed, node, len(b), len(p))
			}
			for i := range b {
				if b[i] != p[i] {
					t.Fatalf("seed %d node %d entry %d: batched %q, per-message %q",
						seed, node, i, b[i], p[i])
				}
			}
		}
		for node := range bc {
			if bc[node] != pc[node] {
				t.Fatalf("seed %d node %d: batched counters %+v, per-message %+v",
					seed, node, bc[node], pc[node])
			}
		}
	}
}

// TestMidBatchKill pins the semantics both schemes must share when a handler
// kills its own node partway through a same-instant batch: messages already
// delivered stay delivered, the remainder of the batch is dropped, and the
// counters record exactly the delivered prefix.
func TestMidBatchKill(t *testing.T) {
	for _, scheme := range deliverySchemes {
		eng := sim.NewEngine(1)
		net := New(eng, 2, flatLatency(time.Millisecond))
		log := newRxLog(eng, 2)
		log.onMsg = func(dst Addr, msg Message) {
			if msg == "poison" {
				net.Kill(dst)
			}
		}
		net.Attach(0, log.handler(0))
		net.Attach(1, log.handler(1))
		scheme.send(net, 0, 1, "first")
		scheme.send(net, 0, 1, "poison")
		scheme.send(net, 0, 1, "never")
		eng.Run()
		if got := len(log.seen[1]); got != 2 {
			t.Fatalf("%s: delivered %d messages (%v), want 2",
				scheme.name, got, log.seen[1])
		}
		c := net.CountersOf(1)
		if c.MsgsReceived != 2 || c.BytesReceived != 2*DefaultWireSize {
			t.Fatalf("%s: counters %+v, want 2 msgs / %d bytes",
				scheme.name, c, 2*DefaultWireSize)
		}
		if s := net.CountersOf(0); s.MsgsSent != 3 {
			t.Fatalf("%s: sender counters %+v, want 3 sent", scheme.name, s)
		}
	}
}

// TestBatchedCoalescesEvents asserts the batching actually happens: a fan-in
// of k same-instant messages to one destination costs one engine event, not
// k.
func TestBatchedCoalescesEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, 2, flatLatency(time.Millisecond))
	net.Attach(0, HandlerFunc(func(Addr, Message) {}))
	net.Attach(1, HandlerFunc(func(Addr, Message) {}))
	for i := 0; i < 8; i++ {
		net.Send(0, 1, i)
	}
	if got := eng.Pending(); got != 1 {
		t.Fatalf("8 same-instant sends scheduled %d events, want 1", got)
	}
	eng.Run()
	if c := net.CountersOf(1); c.MsgsReceived != 8 {
		t.Fatalf("delivered %d of 8 coalesced messages", c.MsgsReceived)
	}
}
