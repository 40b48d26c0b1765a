package scribe

import (
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// A poisoned record (sim.CheckPoisoned) holds keys and handles of all ones,
// a poisonPayload, which no member expects, and poisonHandlers, which accept
// every any-cast, so a banked group state read as a member's takes the walk.
var (
	poisonKey      = ids.New(^uint64(0), ^uint64(0))
	poisonHandle   = pastry.NodeHandle{Id: poisonKey, Addr: 0}
	poisonHandlers = Handlers{
		OnAnycast:   func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) {},
	}
)

type poisonPayload struct{}

// Poison overwrites a banked any-cast shell, Visited filled to its capacity
// with poisonKey and the stamp's complement as Seq.
func (m *anycastMsg) Poison(stamp uint64) (twice bool) {
	visited := m.Visited[:cap(m.Visited)]
	for i := range visited {
		visited[i] = poisonKey
	}
	twice = m.Seq == ^stamp
	*m = anycastMsg{Group: poisonKey, Payload: poisonPayload{}, Origin: poisonHandle, Seq: ^stamp, Visited: visited, Trace: obs.Ref(stamp)}
	return twice
}

// Poison overwrites a banked verdict shell, the stamp's complement as Seq.
func (v *anycastVerdict) Poison(stamp uint64) (twice bool) {
	twice = v.Seq == ^stamp
	*v = anycastVerdict{Seq: ^stamp, Accepted: true, By: poisonHandle, Visited: -1, Group: poisonKey, Payload: poisonPayload{}, Trace: obs.Ref(stamp)}
	return twice
}

// Poison overwrites a banked wheel timer: a nil Scribe, the stamp's
// complement as its epoch.
func (t *wheelTimer) Poison(stamp uint64) (twice bool) {
	twice = t.epoch == ^stamp
	*t = wheelTimer{epoch: ^stamp}
	return twice
}

// Poison overwrites a pruned group state: a member of every any-cast,
// children -1 to their capacity, minus the stamp as its missed beats. It
// keeps its key, which in-flight joins and leaves read.
func (g *groupState) Poison(stamp uint64) (twice bool) {
	children := g.children[:cap(g.children)]
	for i := range children {
		children[i] = -1
	}
	twice = g.missedBeats == -int(stamp)
	g.member, g.root, g.parent, g.children = true, true, poisonHandle, children
	g.handlers, g.joining, g.missedBeats = poisonHandlers, true, -int(stamp)
	return twice
}

// Poison poisons every stack of the bank.
func (b *groupBank) Poison(stamp uint64) (n int) {
	for _, stack := range b.free {
		n += sim.PoisonEach(stack, stamp)
	}
	return n
}
