package pastry

import (
	"vbundle/internal/simnet"
)

// Join starts the Pastry join protocol through a bootstrap node: the join
// request is routed toward the joiner's own identifier, harvesting routing
// rows from every node on the path; the numerically closest node answers
// with its leaf set; finally the joiner announces itself to every node it
// learned about so they fold it into their tables.
//
// Passing the node's own address (or simnet.Nowhere) bootstraps a new ring
// with this node as its first member.
func (n *Node) Join(bootstrap simnet.Addr) {
	if bootstrap == simnet.Nowhere || bootstrap == n.handle.Addr {
		n.joined = true
		return
	}
	n.ring.net.Send(n.handle.Addr, bootstrap, &joinForward{Joiner: n.handle})
}

// handleJoinForward processes one hop of a join routed toward the joiner's
// identifier.
func (n *Node) handleJoinForward(m *joinForward) {
	n.consider(m.Joiner)
	// Contribute the routing rows a node at this prefix depth can supply:
	// every populated entry in rows 0..l, where l is the length of the
	// prefix shared with the joiner.
	l := n.handle.Id.CommonPrefixLen(m.Joiner.Id, n.ring.cfg.B)
	maxRow := l
	if maxRow >= n.ring.cfg.rows() {
		maxRow = n.ring.cfg.rows() - 1
	}
	for row := 0; row <= maxRow; row++ {
		for col := 0; col < n.ring.cfg.cols(); col++ {
			if e := n.rtGet(row, col); !e.IsNil() {
				m.Rows = append(m.Rows, e)
			}
		}
	}
	m.Rows = append(m.Rows, n.handle)

	next := n.NextHop(m.Joiner.Id)
	if next.IsNil() || next.Id == m.Joiner.Id {
		// We are numerically closest to the joiner: reply with our leaf
		// set, which (shifted by one position) becomes the joiner's.
		n.ring.net.Send(n.handle.Addr, m.Joiner.Addr, &joinReply{
			From:    n.handle,
			Rows:    m.Rows,
			LeafCW:  n.handles(n.leafCW),
			LeafCCW: n.handles(n.leafCCW),
			Hops:    m.Hops,
		})
		return
	}
	m.Hops++
	n.ring.net.Send(n.handle.Addr, next.Addr, m)
}

// handleJoinReply installs the harvested state and announces the new node.
func (n *Node) handleJoinReply(m *joinReply) {
	n.consider(m.From)
	for _, h := range m.Rows {
		n.consider(h)
	}
	for _, h := range m.LeafCW {
		n.consider(h)
	}
	for _, h := range m.LeafCCW {
		n.consider(h)
	}
	// Tell everyone we learned about that we exist, so their tables absorb
	// us (the "transmits a copy of its resulting state" step of the paper's
	// join, reduced to the handle in simulation).
	n.knownNodes(func(h NodeHandle) {
		n.ring.net.Send(n.handle.Addr, h.Addr, announce{From: n.handle})
	})
	n.joined = true
}
