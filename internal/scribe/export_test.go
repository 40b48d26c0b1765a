package scribe

import (
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

var (
	poisonKey    = ids.New(^uint64(0), ^uint64(0))
	poisonHandle = pastry.NodeHandle{Id: poisonKey, Addr: 0}
	// poisonAccept accepts every any-cast: a banked group state read as a
	// member's takes the walk.
	poisonHandlers = Handlers{
		OnAnycast:   func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) {},
	}
)

// poisonPayload is what a poisoned shell carries: no member expects it.
type poisonPayload struct{}

// poisonStamp numbers the PoisonBanked calls; a call writes its stamp into
// every record it poisons, so meeting the stamp again in one call means a
// record was banked twice.
var poisonStamp uint64

// PoisonBanked overwrites with garbage every any-cast and verdict shell,
// every wheel timer and every pruned group state banked on e: keys and
// handles of all ones, a poisonPayload, Visited and children filled to their
// capacity with the all-ones key and address -1, a nil Scribe, a member that
// accepts everything. A group state keeps its key, which in-flight joins and
// leaves read. A record is banked once nothing reads it any more, so
// poisoning the banks between any two events must change nothing a run
// computes. It returns how many records it poisoned, and panics on one
// banked twice.
func PoisonBanked(e *sim.Engine) (n int) {
	poisonStamp++
	stamp := ^poisonStamp
	twice := func(kind string) { panic("scribe: a " + kind + " is banked twice") }
	for _, m := range anycastShells.Of(e).Banked() {
		if m.Seq == stamp {
			twice("any-cast shell")
		}
		visited := m.Visited[:cap(m.Visited)]
		for i := range visited {
			visited[i] = poisonKey
		}
		*m = anycastMsg{Group: poisonKey, Payload: poisonPayload{}, Origin: poisonHandle, Seq: stamp, Visited: visited, Trace: obs.Ref(stamp)}
		n++
	}
	for _, v := range verdictShells.Of(e).Banked() {
		if v.Seq == stamp {
			twice("verdict")
		}
		*v = anycastVerdict{Seq: stamp, Accepted: true, By: poisonHandle, Visited: -1, Group: poisonKey, Payload: poisonPayload{}, Trace: obs.Ref(stamp)}
		n++
	}
	for _, t := range wheelTimers.Of(e).Banked() {
		if t.epoch == stamp {
			twice("wheel timer")
		}
		*t = wheelTimer{epoch: stamp}
		n++
	}
	b := groupBanks.Of(e)
	for _, stack := range b.free {
		for _, g := range stack {
			if g.missedBeats == -int(poisonStamp) {
				twice("group state")
			}
			children := g.children[:cap(g.children)]
			for i := range children {
				children[i] = -1
			}
			g.member, g.root, g.parent, g.children = true, true, poisonHandle, children
			g.handlers, g.joining, g.missedBeats = poisonHandlers, true, -int(poisonStamp)
			n++
		}
	}
	return n
}
