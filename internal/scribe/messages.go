package scribe

import (
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

const handleWireBytes = 20

// joinMsg is routed toward the groupId and grafted at the first tree node.
// Like joinAck it is the group key and nothing more: the child is the route's
// source, which the envelope carries (Forward's src, RouteInfo.Source on
// delivery), so a join points at the joiner's own copy of the key
// (groupState.group, written once) and costs no object. On the wire it is
// still a key and a handle.
type joinMsg ids.Id

// WireSize implements simnet.WireSizer.
func (m *joinMsg) WireSize() int { return ids.Bytes + handleWireBytes }

// joinAck confirms a graft. It is the group key and nothing more: the child
// reads its new parent off the envelope that brought the ack. A parent
// therefore acknowledges every child of a group with one pointer to its own
// copy of the key (groupState.group, written once) instead of one object a
// child. On the wire it is still a key and a handle.
type joinAck ids.Id

// WireSize implements simnet.WireSizer.
func (m *joinAck) WireSize() int { return ids.Bytes + handleWireBytes }

// leaveMsg prunes a childless, memberless node from the tree, or tells a
// sender to drop a stale edge. It is the group key, as joinAck is: the
// departing child is the direct envelope's sender.
type leaveMsg ids.Id

// WireSize implements simnet.WireSizer.
func (m *leaveMsg) WireSize() int { return ids.Bytes + handleWireBytes }

// multicastMsg travels from the publisher to the rendezvous point.
type multicastMsg struct {
	Group   ids.Id
	Payload simnet.Message
	From    pastry.NodeHandle
}

// WireSize implements simnet.WireSizer.
func (m *multicastMsg) WireSize() int {
	return ids.Bytes + handleWireBytes + simnet.WireSize(m.Payload)
}

// multicastDown travels from the root down the tree to all members.
type multicastDown struct {
	Group   ids.Id
	Payload simnet.Message
	From    pastry.NodeHandle
}

// WireSize implements simnet.WireSizer.
func (m *multicastDown) WireSize() int {
	return ids.Bytes + handleWireBytes + simnet.WireSize(m.Payload)
}

// Upward is a payload SendToParent pushes one tree edge toward the root
// (aggregation reduction). It travels bare — the direct envelope already
// names its sender — so it has to name the group whose tree it climbs, and
// its WireSize counts TreeEdgeWireBytes on top of its own content.
type Upward interface {
	TreeGroup() ids.Id
}

// TreeEdgeWireBytes is what a push up a tree edge carries beside the
// payload's content: the group key and the sender's handle.
const TreeEdgeWireBytes = ids.Bytes + handleWireBytes

// anycastMsg performs the depth-first search of the tree. It is a shell: one
// walk carries it from node to node, the node where the walk ends banks it
// (finishAnycast), and the network banks one it drops. Visited keeps its
// backing from walk to walk.
type anycastMsg struct {
	Group   ids.Id
	Payload simnet.Message
	Origin  pastry.NodeHandle
	Seq     uint64
	Visited []ids.Id
	// Trace is the originator's anycast span, carried along the walk so
	// every step (and the acceptor's lease) can name its cause. Recorder
	// metadata, deliberately excluded from WireSize.
	Trace obs.Ref
}

// WireSize implements simnet.WireSizer.
func (m *anycastMsg) WireSize() int {
	return ids.Bytes*(1+len(m.Visited)) + handleWireBytes + 8 + simnet.WireSize(m.Payload)
}

// anycastShells and verdictShells are the engines' banks of any-cast and
// verdict shells.
var (
	anycastShells = sim.NewLocal[sim.Bank[anycastMsg]]()
	verdictShells = sim.NewLocal[sim.Bank[anycastVerdict]]()
	// visitedLists carves a shell's first Visited backing, which most walks
	// never outgrow.
	visitedLists = sim.NewLocal[sim.Slab[[4]ids.Id]]()
)

// Recycle implements simnet.Recycler: the walk ended on engine e's goroutine.
// The payload is dropped so that a banked shell does not pin the query.
func (m *anycastMsg) Recycle(e *sim.Engine) {
	m.Payload = nil
	anycastShells.Of(e).Put(m)
}

func (m *anycastMsg) visited(id ids.Id) bool {
	for _, v := range m.Visited {
		if v == id {
			return true
		}
	}
	return false
}

// anycastVerdict reports the search outcome to the originator, in a shell
// the node that ends the walk takes and the originator banks. Group and
// Payload echo the query so an originator that already gave up on the
// sequence number (timeout, retry already resolved) can still identify the
// accepted work and hand it to its orphan handler instead of stranding the
// acceptor's reservation.
type anycastVerdict struct {
	Seq      uint64
	Accepted bool
	By       pastry.NodeHandle
	Visited  int
	Group    ids.Id
	Payload  simnet.Message
	// Trace echoes the query's span ref (recorder metadata, not on the wire
	// for accounting purposes).
	Trace obs.Ref
}

// WireSize implements simnet.WireSizer.
func (m *anycastVerdict) WireSize() int {
	return 8 + 1 + handleWireBytes + 4 + ids.Bytes + simnet.WireSize(m.Payload)
}

// Recycle implements simnet.Recycler: the verdict ended on engine e's
// goroutine, read by its originator or dropped by the network.
func (m *anycastVerdict) Recycle(e *sim.Engine) {
	m.Payload = nil
	verdictShells.Of(e).Put(m)
}

// heartbeat keeps tree edges fresh; children re-join after missing several.
type heartbeat struct {
	Group ids.Id
}

// WireSize implements simnet.WireSizer.
func (heartbeat) WireSize() int { return ids.Bytes }

// rootProbe is routed by a rendezvous point toward its own group key each
// maintenance round; if it lands on a different node, the sender is a
// stale root (routing state has healed around it).
type rootProbe struct {
	Group ids.Id
	From  pastry.NodeHandle
}

// WireSize implements simnet.WireSizer.
func (rootProbe) WireSize() int { return ids.Bytes + handleWireBytes }

// rootDemote tells a stale root to step down and re-join as a child.
type rootDemote struct {
	Group ids.Id
}

// WireSize implements simnet.WireSizer.
func (rootDemote) WireSize() int { return ids.Bytes }
