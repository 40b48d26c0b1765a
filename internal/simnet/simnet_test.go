package simnet

import (
	"testing"
	"time"

	"vbundle/internal/sim"
)

func flatLatency(d time.Duration) LatencyFunc {
	return func(a, b Addr) time.Duration { return d }
}

type recorder struct {
	from []Addr
	msgs []Message
	at   []time.Duration
	eng  *sim.Engine
}

func (r *recorder) HandleMessage(from Addr, msg Message) {
	r.from = append(r.from, from)
	r.msgs = append(r.msgs, msg)
	r.at = append(r.at, r.eng.Now())
}

func TestDeliveryWithLatency(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(5*time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	n.Send(0, 1, "hello")
	e.Run()
	if len(rx.msgs) != 1 || rx.msgs[0] != "hello" || rx.from[0] != 0 {
		t.Fatalf("delivery wrong: %+v", rx)
	}
	if rx.at[0] != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", rx.at[0])
	}
}

func TestFIFOBetweenPair(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	for i := 0; i < 10; i++ {
		n.Send(0, 1, i)
	}
	e.Run()
	for i, m := range rx.msgs {
		if m.(int) != i {
			t.Fatalf("out of order delivery: %v", rx.msgs)
		}
	}
}

func TestDeadNodesDropTraffic(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 3, flatLatency(time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	// Node 2 never attached: send from it is dropped.
	n.Send(2, 1, "ghost")
	// Crash the receiver: the message in flight is dropped at delivery time.
	n.Send(0, 1, "casualty")
	n.Crash(1)
	e.Run()
	if len(rx.msgs) != 0 {
		t.Fatalf("dead node received %v", rx.msgs)
	}
	// Re-attach the saved handler and verify delivery resumes.
	n.Attach(1, rx)
	n.Send(0, 1, "back")
	e.Run()
	if len(rx.msgs) != 1 || rx.msgs[0] != "back" {
		t.Fatalf("delivery after re-attach: %v", rx.msgs)
	}
}

func TestAliveReflectsState(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(0))
	if n.Alive(0) {
		t.Fatal("unattached node reported alive")
	}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	if !n.Alive(0) {
		t.Fatal("attached node reported dead")
	}
	n.Crash(0)
	if n.Alive(0) {
		t.Fatal("crashed node reported alive")
	}
	if n.Alive(Nowhere) {
		t.Fatal("Nowhere reported alive")
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestCounters(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, HandlerFunc(func(Addr, Message) {}))
	n.Send(0, 1, "x")          // default size
	n.Send(0, 1, sized{n: 10}) // explicit size
	e.Run()
	c := n.AllCounters()
	c0, c1 := c[0], c[1]
	if c0.MsgsSent != 2 || c0.BytesSent != DefaultWireSize+10 {
		t.Fatalf("sender counters: %+v", c0)
	}
	if c1.MsgsReceived != 2 || c1.BytesReceived != DefaultWireSize+10 {
		t.Fatalf("receiver counters: %+v", c1)
	}
	all := n.AllCounters()
	if all[0] != c0 || all[1] != c1 {
		t.Fatalf("AllCounters mismatch")
	}
	n.ResetCounters()
	if n.AllCounters()[0] != (Counters{}) {
		t.Fatal("ResetCounters did not zero")
	}
}

func TestSendFromDeadNotCounted(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(0))
	n.Attach(1, HandlerFunc(func(Addr, Message) {}))
	n.Send(0, 1, "x") // node 0 never attached
	e.Run()
	if c := n.AllCounters()[0]; c.MsgsSent != 0 {
		t.Fatalf("dead sender counted: %+v", c)
	}
}

func TestDropRate(t *testing.T) {
	e := sim.NewEngine(7)
	n := New(e, 2, flatLatency(0), WithDropRate(0.5))
	var received int
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, HandlerFunc(func(Addr, Message) { received++ }))
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(0, 1, i)
	}
	e.Run()
	if received < total/3 || received > 2*total/3 {
		t.Fatalf("drop rate 0.5 delivered %d of %d", received, total)
	}
	// Sender is still charged for all messages.
	if c := n.AllCounters()[0]; c.MsgsSent != total {
		t.Fatalf("sender counted %d, want %d", c.MsgsSent, total)
	}
}

func TestTopologyDrivenLatencyOrdering(t *testing.T) {
	// A far message sent first can arrive after a near message sent later.
	e := sim.NewEngine(1)
	lat := func(a, b Addr) time.Duration {
		if a == 0 {
			return 10 * time.Millisecond
		}
		return time.Millisecond
	}
	n := New(e, 3, lat)
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, HandlerFunc(func(Addr, Message) {}))
	n.Attach(2, rx)
	n.Send(0, 2, "far")
	n.Send(1, 2, "near")
	e.Run()
	if rx.msgs[0] != "near" || rx.msgs[1] != "far" {
		t.Fatalf("latency ordering: %v", rx.msgs)
	}
}

func TestPanicsOnBadAddress(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 1, flatLatency(0))
	for _, fn := range []func(){
		func() { n.Attach(5, HandlerFunc(func(Addr, Message) {})) },
		func() { n.Attach(0, nil) },
		func() { n.Send(0, 9, "x") },
		func() { n.Crash(3) },
		func() { n.TraceSource(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestSecondNetworkOnOneEngineRejected: the network is its engine's delivery
// handler, so a second network on the engine — serial, or any shard of a
// sharded root — would take the first one's deliveries; New panics instead.
func TestSecondNetworkOnOneEngineRejected(t *testing.T) {
	for _, e := range []*sim.Engine{sim.NewEngine(1), sim.NewShardedEngine(1, 2)} {
		New(e, 2, flatLatency(time.Millisecond))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a second network on a %d-shard engine was accepted", e.ShardCount())
				}
			}()
			New(e, 2, flatLatency(time.Millisecond))
		}()
	}
}
