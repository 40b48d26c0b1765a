package simnet

import (
	"testing"
	"time"

	"vbundle/internal/sim"
)

func TestLinkFaultWindowDropsOnlyInside(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	n.ScheduleFaults(FaultSchedule{Links: []LinkFault{
		{From: 0, To: 1, Start: 10 * time.Millisecond, End: 20 * time.Millisecond, Rate: 1},
	}})

	// One send before, one inside, one after the window.
	n.Send(0, 1, "before")
	e.RunUntil(15 * time.Millisecond)
	n.Send(0, 1, "inside")
	e.RunUntil(30 * time.Millisecond)
	n.Send(0, 1, "after")
	e.Run()

	if len(rx.msgs) != 2 || rx.msgs[0] != "before" || rx.msgs[1] != "after" {
		t.Fatalf("delivered %v, want [before after]", rx.msgs)
	}
	// Sends are still charged to the sender even when the window eats them.
	if c := n.CountersOf(0); c.MsgsSent != 3 {
		t.Fatalf("sender counted %d sends, want 3", c.MsgsSent)
	}
}

func TestLinkFaultWildcardAndDirection(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 3, flatLatency(time.Millisecond))
	rx1 := &recorder{eng: e}
	rx2 := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx1)
	n.Attach(2, rx2)
	// Everything INTO node 1 is lost for the first second; node 2 is fine.
	n.ScheduleFaults(FaultSchedule{Links: []LinkFault{
		{From: Nowhere, To: 1, Start: 0, End: time.Second, Rate: 1},
	}})
	n.Send(0, 1, "x")
	n.Send(0, 2, "y")
	e.Run()
	if len(rx1.msgs) != 0 {
		t.Fatalf("node 1 received %v during its blackout", rx1.msgs)
	}
	if len(rx2.msgs) != 1 {
		t.Fatalf("node 2 received %v, want [y]", rx2.msgs)
	}
}

func TestNodeFaultKillsAndRestarts(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	rx := &recorder{eng: e}
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, rx)
	n.ScheduleFaults(FaultSchedule{Nodes: []NodeFault{
		{Addr: 1, At: 10 * time.Millisecond, RestartAfter: 20 * time.Millisecond},
	}})

	e.RunUntil(15 * time.Millisecond)
	if n.Alive(1) {
		t.Fatal("node 1 alive inside its crash window")
	}
	n.Send(0, 1, "lost")
	e.RunUntil(40 * time.Millisecond)
	if !n.Alive(1) {
		t.Fatal("node 1 not revived after RestartAfter")
	}
	n.Send(0, 1, "kept")
	e.Run()
	if len(rx.msgs) != 1 || rx.msgs[0] != "kept" {
		t.Fatalf("delivered %v, want [kept]", rx.msgs)
	}
}

func TestNodeFaultWithoutRestartStaysDead(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Attach(1, HandlerFunc(func(Addr, Message) {}))
	n.ScheduleFaults(FaultSchedule{Nodes: []NodeFault{{Addr: 1, At: time.Millisecond}}})
	e.RunFor(time.Hour)
	if n.Alive(1) {
		t.Fatal("node 1 restarted without a RestartAfter")
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
// bug: Revive used to resurrect a killed node with its old handler — leaf
// sets, lease tables and placement maps fully intact. A crash-restart must
// come back with a blank handler instead; the pre-crash soft state is gone.
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
	n.ScheduleFaults(FaultSchedule{Nodes: []NodeFault{
		{Addr: 1, At: 10 * time.Millisecond, RestartAfter: 20 * time.Millisecond, Crash: true},
	}})
	e.RunUntil(15 * time.Millisecond)
	if n.Alive(1) {
		t.Fatal("node 1 alive inside its crash window")
	}
	e.RunUntil(40 * time.Millisecond)
	if !n.Alive(1) {
		t.Fatal("node 1 not restarted after RestartAfter")
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

// TestReviveRefusesCrashedNode pins the asymmetry: Revive is for pauses,
// and a crashed node (handler discarded) must not be revivable into a
// handlerless zombie.
func TestReviveRefusesCrashedNode(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 1, flatLatency(time.Millisecond))
	n.Attach(0, HandlerFunc(func(Addr, Message) {}))
	n.Crash(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Revive of a crashed node did not panic")
		}
	}()
	n.Revive(0)
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

func TestDropProbabilityFoldsIndependently(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e, 2, flatLatency(time.Millisecond), WithDropRate(0.5))
	n.ScheduleFaults(FaultSchedule{Links: []LinkFault{
		{From: Nowhere, To: Nowhere, Start: 0, End: time.Second, Rate: 0.5},
	}})
	if got := n.dropProbability(0, 1); got != 0.75 {
		t.Fatalf("combined drop probability = %g, want 0.75", got)
	}
}

// TestUntracedNetworkKeepsNoSources: with the recorder off the network holds
// no recorder source a node, TraceSource returns nil for every address, and
// every emit site — kill, revive, crash, restart and a send the drop draw
// loses — runs on the nil source without a panic.
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
	n.Kill(1)
	n.Revive(1)
	n.Crash(2)
	n.Restart(2)
	n.Send(0, 1, "lost")
	e.Run()
	if c := n.CountersOf(0); c.MsgsSent != 1 || n.CountersOf(1).MsgsReceived != 0 {
		t.Fatalf("the lossy send was counted %+v at the sender and delivered %d times", c, n.CountersOf(1).MsgsReceived)
	}
}
