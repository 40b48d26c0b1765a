package pastry

import (
	"testing"
	"time"
	"unsafe"

	"vbundle/internal/ids"
	"vbundle/internal/sizeclass"
)

// TestNodeSizeCeiling pins what one node costs every server of a ring: 360
// bytes. NewRing carves the nodes from one []Node, so there is no size class
// to absorb a word — every byte is one more a server — and the ceiling is the
// size itself. What is the same for every node of a ring belongs on Ring,
// what only failure detection or maintenance touches belongs in upkeep, and
// what an application wants to hear is a method of the application.
func TestNodeSizeCeiling(t *testing.T) {
	const expected, ceiling = 360, 360
	size := unsafe.Sizeof(Node{})
	if size > ceiling {
		t.Fatalf("pastry.Node is %d bytes and falls into the %d-byte size class; the ceiling is %d (expected %d)",
			size, sizeclass.Of(size), ceiling, expected)
	}
	t.Logf("pastry.Node: %d bytes, %d-byte size class (expected %d)", size, sizeclass.Of(size), expected)
}

// TestUpkeepStateIsLazy: routing alone never makes a node's upkeep state, the
// first ping does, and a node rebuilt after a crash starts without it again.
func TestUpkeepStateIsLazy(t *testing.T) {
	ring, sink := buildStaticRing(t, 4, 8, HierarchyAssigner)
	engine := ring.Engine()
	for i, n := range ring.Nodes() {
		n.Route(ids.HashString(string(rune('a'+i))), "test", "payload")
	}
	engine.Run()
	if len(sink) == 0 {
		t.Fatal("nothing was routed")
	}
	for i, n := range ring.Nodes() {
		if n.up != nil {
			t.Fatalf("node %d has upkeep state after routing only", i)
		}
	}

	a, b := ring.Node(3), ring.Node(20)
	var alive, answered bool
	a.Ping(b.Handle(), func(ok bool) { alive, answered = ok, true })
	if a.up == nil {
		t.Fatal("Ping did not make the sender's upkeep state")
	}
	engine.Run()
	if !answered || !alive {
		t.Fatalf("ping answered=%v alive=%v", answered, alive)
	}
	if b.up != nil {
		t.Fatal("answering a ping made the receiver's upkeep state")
	}

	a.StartMaintenance()
	engine.RunFor(2 * maintenanceInterval)
	a.StopMaintenance()
	engine.Run()

	peers := a.Peers()
	ring.Network().Crash(a.Addr())
	rebuilt := ring.RebuildNode(3)
	if rebuilt.up != nil {
		t.Fatal("a rebuilt node starts with upkeep state")
	}
	// Rejoin scans the fresh tables (knownNodes) to announce the node, so it
	// is the scan scratch, not a probe, that makes the state here.
	rebuilt.Rejoin(peers)
	engine.RunFor(time.Second)
	if len(rebuilt.up.pendingPings) != 0 || len(rebuilt.up.suspicion) != 0 || rebuilt.up.maintenance.Running() || rebuilt.up.pingSeq != 0 {
		t.Fatalf("rejoined node inherited failure-detector state: %+v", rebuilt.up)
	}
}
