package simnet

import (
	"testing"
	"time"

	"vbundle/internal/sim"
)

// TestNodeFaultKillsAndRestarts crashes a node and restarts it through a
// restarter that re-attaches the saved handler, both scheduled in the global
// band.
func TestNodeFaultKillsAndRestarts(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	n.SetRestarter(func(a Addr) { n.Attach(a, rx) })
	e.AtGlobal(10*time.Millisecond, func() { n.Crash(1) })
	e.AtGlobal(30*time.Millisecond, func() { n.Restart(1) })

	e.RunUntil(15 * time.Millisecond)
	if n.Alive(1) {
		t.Fatal("node 1 alive inside its crash window")
	}
	n.Send(0, 1, "lost")
	e.RunUntil(40 * time.Millisecond)
	if !n.Alive(1) {
		t.Fatal("node 1 not restarted")
	}
	n.Send(0, 1, "kept")
	e.Run()
	if len(rx.msgs) != 1 || rx.msgs[0] != "kept" {
		t.Fatalf("delivered %v, want [kept]", rx.msgs)
	}
}

// TestNodeFaultWithoutRestartStaysDead: a crash with no Restart after it is
// permanent, even on a network that has a restarter, and traffic to the
// node is dropped.
func TestNodeFaultWithoutRestartStaysDead(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, HandlerFunc(func(Addr, Message) {}))
	n.SetRestarter(func(a Addr) { n.Attach(a, HandlerFunc(func(Addr, Message) {})) })
	e.AtGlobal(time.Millisecond, func() { n.Crash(1) })
	e.At(2*time.Millisecond, func() { n.Send(0, 1, "lost") })
	e.RunFor(time.Hour)
	if n.Alive(1) {
		t.Fatal("node 1 came back without a Restart")
	}
	if got := n.AllCounters()[1].MsgsReceived; got != 0 {
		t.Fatalf("the crashed node received %d messages", got)
	}
}

// statefulHandler accumulates soft state (every payload it ever saw) — the
// stand-in for a node's leaf sets, lease tables and placement maps.
type statefulHandler struct {
	seen []Message
}

func (h *statefulHandler) HandleMessage(from Addr, msg Message) {
	h.seen = append(h.seen, msg)
}

// TestCrashDiscardsSoftState is the regression test for the fake-restart
// bug: a restart used to resurrect a node with its old handler — leaf sets,
// lease tables and placement maps fully intact. A crash-restart must come
// back with a blank handler instead; the pre-crash soft state is gone.
func TestCrashDiscardsSoftState(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))

	first := &statefulHandler{}
	n.Attach(1, first)
	var rebuilt *statefulHandler
	n.SetRestarter(func(addr Addr) {
		rebuilt = &statefulHandler{}
		n.Attach(addr, rebuilt)
	})

	n.Send(0, 1, "pre-crash")
	e.AtGlobal(10*time.Millisecond, func() { n.Crash(1) })
	e.AtGlobal(30*time.Millisecond, func() { n.Restart(1) })
	e.RunUntil(15 * time.Millisecond)
	if n.Alive(1) {
		t.Fatal("node 1 alive inside its crash window")
	}
	e.RunUntil(40 * time.Millisecond)
	if !n.Alive(1) {
		t.Fatal("node 1 not restarted")
	}
	if rebuilt == nil {
		t.Fatal("restarter never invoked")
	}
	n.Send(0, 1, "post-restart")
	e.Run()

	// The pre-crash handler saw the old world and is now detached; the
	// rebuilt handler starts from nothing.
	if len(first.seen) != 1 || first.seen[0] != "pre-crash" {
		t.Fatalf("pre-crash handler saw %v, want [pre-crash]", first.seen)
	}
	if len(rebuilt.seen) != 1 || rebuilt.seen[0] != "post-restart" {
		t.Fatalf("rebuilt handler saw %v, want only [post-restart] — pre-crash soft state must be gone", rebuilt.seen)
	}
}

// TestRestartWithoutRestarterPanics: a crash-restart schedule on a network
// with no registered rebuild hook is a configuration bug, caught loudly.
func TestRestartWithoutRestarterPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 1, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Crash(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Restart without a restarter did not panic")
		}
	}()
	n.Restart(0)
}

// TestUntracedNetworkKeepsNoSources: with the recorder off the network holds
// no recorder source a node, TraceSource returns nil for every address, and
// every emit site — crash, restart and a send the drop draw loses — runs on
// the nil source without a panic.
func TestUntracedNetworkKeepsNoSources(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 3, flatLatency(time.Millisecond), WithDropRate(1))
	if n.obsSrc != nil {
		t.Fatalf("an untraced network holds %d recorder sources", len(n.obsSrc))
	}
	for a := Addr(0); a < 3; a++ {
		n.Attach(a, HandlerFunc(func(Addr, Message) {}))
		if s := n.TraceSource(a); s != nil {
			t.Fatalf("TraceSource(%d) = %p on an untraced network, want nil", a, s)
		}
	}
	n.SetRestarter(func(a Addr) { n.Attach(a, HandlerFunc(func(Addr, Message) {})) })
	n.Crash(2)
	n.Restart(2)
	n.Send(0, 1, "lost")
	e.Run()
	if c := n.AllCounters(); c[0].MsgsSent != 1 || c[1].MsgsReceived != 0 {
		t.Fatalf("the lossy send was counted %+v at the sender and delivered %d times", c[0], c[1].MsgsReceived)
	}
}
