package scribe

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
)

// TestRootProbeDemotesStaleRoot verifies the root-reconciliation protocol:
// a node that wrongly believes it is a group's rendezvous point (a split
// caused by failure-detector mistakes) demotes itself once routing heals.
func TestRootProbeDemotesStaleRoot(t *testing.T) {
	f := newFixture(t, 4, 4)
	group := GroupKey("split-brain")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()

	var trueRoot *Scribe
	for _, s := range f.scribes {
		if s.IsRoot(group) {
			trueRoot = s
		}
	}
	if trueRoot == nil {
		t.Fatal("no root")
	}
	// Fabricate a split: promote an arbitrary other member to "root".
	var impostor *Scribe
	for _, s := range f.scribes {
		if s != trueRoot {
			impostor = s
			break
		}
	}
	g := impostor.stateFor(group)
	g.root = true
	g.parent = pastry.NoHandle

	for _, s := range f.scribes {
		s.StartMaintenance(10 * time.Second)
	}
	f.engine.RunFor(time.Minute)
	for _, s := range f.scribes {
		s.StopMaintenance()
	}
	f.engine.Run()

	roots := 0
	for _, s := range f.scribes {
		if s.IsRoot(group) {
			roots++
			if s != trueRoot {
				t.Errorf("impostor %s still root", s.Node().ID().Short())
			}
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots after reconciliation, want 1", roots)
	}
	// The demoted impostor re-joined: it has a parent again.
	if impostor.Parent(group).IsNil() {
		t.Error("demoted root has no parent")
	}
}

// TestStaleParentEdgeGetsPruned verifies that a node holding a stale child
// edge (the child re-grafted elsewhere) drops it when the child refuses its
// heartbeat.
func TestStaleParentEdgeGetsPruned(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("stale-edge")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()

	// Find a child with a parent, and a third node to fabricate a stale
	// edge on.
	var child *Scribe
	for _, s := range f.scribes {
		if !s.IsRoot(group) && !s.Parent(group).IsNil() {
			child = s
			break
		}
	}
	if child == nil {
		t.Fatal("no attached child")
	}
	var stale *Scribe
	for _, s := range f.scribes {
		if s != child && s.Node().ID() != child.Parent(group).Id {
			stale = s
			break
		}
	}
	// Fabricate: stale wrongly lists child as its child.
	sg := stale.stateFor(group)
	sg.putChild(stale.Node(), child.Node().Handle())

	for _, s := range f.scribes {
		s.StartMaintenance(10 * time.Second)
	}
	f.engine.RunFor(30 * time.Second)
	for _, s := range f.scribes {
		s.StopMaintenance()
	}
	f.engine.Run()

	for _, h := range stale.Children(group) {
		if h.Id == child.Node().ID() {
			t.Fatal("stale edge survived heartbeat pruning")
		}
	}
}

// TestHeartbeatAdoptionIsGradientSafe verifies that a detached node adopts
// a heartbeat sender as parent only when the sender is numerically closer
// to the group key (the invariant that keeps the tree acyclic).
func TestHeartbeatAdoptionIsGradientSafe(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("gradient")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()

	// Pick a member and detach it (simulate a lost join ack).
	var detached *Scribe
	for _, s := range f.scribes {
		if !s.IsRoot(group) && !s.Parent(group).IsNil() {
			detached = s
			break
		}
	}
	dg := detached.stateFor(group)
	dg.parent = pastry.NoHandle

	// A node FARTHER from the key than the detached node sends it a
	// heartbeat (fabricated stale edge): must NOT be adopted.
	var farther *Scribe
	for _, s := range f.scribes {
		if s != detached && ids.CloserTo(group, detached.Node().ID(), s.Node().ID()) {
			farther = s
			break
		}
	}
	if farther == nil {
		t.Skip("no farther node in this fixture")
	}
	fg := farther.stateFor(group)
	fg.putChild(farther.Node(), detached.Node().Handle())
	farther.StartMaintenance(10 * time.Second)
	f.engine.RunFor(15 * time.Second)
	farther.StopMaintenance()
	f.engine.Run()
	if p := detached.Parent(group); !p.IsNil() && p.Id == farther.Node().ID() {
		t.Fatal("detached node adopted a farther parent (cycle risk)")
	}
}

// TestLostJoinAckHealsThroughHeartbeat verifies the healing path: parent
// adopted the child but the ack vanished; the parent's heartbeat (closer to
// the key) re-attaches the child.
func TestLostJoinAckHealsThroughHeartbeat(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("lost-ack")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()

	var child *Scribe
	for _, s := range f.scribes {
		if !s.IsRoot(group) && !s.Parent(group).IsNil() {
			child = s
			break
		}
	}
	parentID := child.Parent(group).Id
	// Simulate the lost ack: child forgets its parent; the parent still
	// lists the child.
	cg := child.stateFor(group)
	cg.parent = pastry.NoHandle

	for _, s := range f.scribes {
		s.StartMaintenance(10 * time.Second)
	}
	f.engine.RunFor(30 * time.Second)
	for _, s := range f.scribes {
		s.StopMaintenance()
	}
	f.engine.Run()

	if p := child.Parent(group); p.IsNil() {
		t.Fatal("child never re-attached")
	} else if p.Id != parentID {
		// Re-joining through routing is also acceptable; just require a
		// working tree edge toward the key.
		if !ids.CloserTo(group, p.Id, child.Node().ID()) {
			t.Fatalf("re-attached against the gradient: parent %s", p.Id.Short())
		}
	}
}
