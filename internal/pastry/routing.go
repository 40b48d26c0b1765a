package pastry

import (
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/simnet"
)

// Route sends payload toward key; it is delivered to the app of the same
// name on the live node whose identifier is numerically closest to key.
func (n *Node) Route(key ids.Id, app string, payload simnet.Message) {
	env := n.pool.env.Take()
	*env = envelope{Key: key, App: app, Source: n.handle, Payload: payload}
	n.routeEnvelope(env)
}

// routeEnvelope makes one routing decision: deliver locally or forward one
// hop closer to the key. A dead next hop (detected the way a failed TCP
// connect would be) is declared failed — triggering table repair — and the
// decision is recomputed, so stale routing entries cannot lose messages.
func (n *Node) routeEnvelope(env *envelope) {
	for {
		next := n.NextHop(env.Key)
		if next.IsNil() {
			n.deliver(env)
			return
		}
		if !n.ring.net.Alive(next.Addr) {
			n.declareDead(next)
			continue
		}
		if app, ok := n.app(env.App); ok {
			if !app.Forward(env.Key, env.Payload, env.Source, next) {
				env.Payload = nil // application consumed the message
				n.pool.env.Put(env)
				return
			}
		}
		env.Hops++
		n.obs.Instant(n.engine.Now(), obs.KindRouteHop, obs.NoRef, int64(env.Hops), int64(next.Addr))
		n.ring.net.Send(n.handle.Addr, next.Addr, env)
		return
	}
}

func (n *Node) deliver(env *envelope) {
	n.deliveries.Inc()
	n.totalHops.Add(int64(env.Hops))
	n.hopsHist.Record(int64(env.Hops))
	n.obs.Instant(n.engine.Now(), obs.KindDeliver, obs.NoRef, int64(env.Hops), 0)
	if app, ok := n.app(env.App); ok {
		app.Deliver(env.Key, env.Payload, RouteInfo{Hops: env.Hops, Source: env.Source})
	}
	env.Payload = nil
	n.pool.env.Put(env)
}

// NextHop computes the Pastry routing decision for key: the zero handle
// means the local node is responsible (deliver here).
//
// The procedure is the standard one: if the key falls inside the leaf-set
// range, jump directly to the numerically closest leaf; otherwise use the
// routing-table entry matching one more digit of the key; otherwise (the
// rare case) forward to any known node strictly closer to the key whose
// shared prefix is no shorter.
func (n *Node) NextHop(key ids.Id) NodeHandle {
	if key == n.handle.Id {
		return NoHandle
	}
	if n.inLeafRange(key) {
		return n.closestLeaf(key)
	}
	l := n.handle.Id.CommonPrefixLen(key, n.ring.cfg.B)
	d := key.DigitAt(l, n.ring.cfg.B)
	if e := n.rtGet(l, d); !e.IsNil() {
		return e
	}
	return n.rareCase(key, l)
}

// inLeafRange reports whether key lies between the extreme leaves (the arc
// that passes through the local identifier). With an empty side the node has
// incomplete ring knowledge and the leaf jump still picks the best known
// candidate, so the range is considered to cover the key.
func (n *Node) inLeafRange(key ids.Id) bool {
	if len(n.leafCW) == 0 || len(n.leafCCW) == 0 {
		return true
	}
	lo := n.ring.dir[n.leafCCW[len(n.leafCCW)-1]] // farthest predecessor
	hi := n.ring.dir[n.leafCW[len(n.leafCW)-1]]   // farthest successor
	return key == lo || ids.InArc(key, lo, hi)
}

// closestLeaf returns the leaf-set member (or zero for self) numerically
// closest to key.
func (n *Node) closestLeaf(key ids.Id) NodeHandle {
	best := n.handle
	for _, ref := range n.leafCW {
		if id := n.ring.dir[ref]; ids.CloserTo(key, id, best.Id) {
			best = NodeHandle{Id: id, Addr: simnet.Addr(ref)}
		}
	}
	for _, ref := range n.leafCCW {
		if id := n.ring.dir[ref]; ids.CloserTo(key, id, best.Id) {
			best = NodeHandle{Id: id, Addr: simnet.Addr(ref)}
		}
	}
	if best.Id == n.handle.Id {
		return NoHandle
	}
	return best
}

// rareCase scans every known node for one strictly closer to the key than
// the local node with a shared prefix at least l digits long. Progress is
// guaranteed because distance to the key strictly decreases each hop.
func (n *Node) rareCase(key ids.Id, l int) NodeHandle {
	best := NoHandle
	n.knownNodes(func(h NodeHandle) {
		if h.Id.CommonPrefixLen(key, n.ring.cfg.B) < l {
			return
		}
		if !ids.CloserTo(key, h.Id, n.handle.Id) {
			return
		}
		if best.IsNil() || ids.CloserTo(key, h.Id, best.Id) {
			best = h
		}
	})
	return best
}
