package pastry

import (
	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// envelope carries a key-routed application message one overlay hop.
type envelope struct {
	Key     ids.Id
	App     string
	Hops    int
	Source  NodeHandle
	Payload simnet.Message
}

// WireSize implements simnet.WireSizer.
func (e *envelope) WireSize() int {
	return ids.Bytes + len(e.App) + 4 + handleWireBytes + simnet.WireSize(e.Payload)
}

// directEnvelope carries a point-to-point application message.
type directEnvelope struct {
	App     string
	From    NodeHandle
	Payload simnet.Message
}

// WireSize implements simnet.WireSizer.
func (e *directEnvelope) WireSize() int {
	return len(e.App) + handleWireBytes + simnet.WireSize(e.Payload)
}

// envPool recycles consumed envelopes among the nodes that run on one engine
// goroutine: every node of a serial ring, one shard's nodes of a sharded one.
// An envelope has a single owner at all times — created at Route/SendDirect,
// handed to the network, consumed exactly once at delivery or dropped by the
// network (Recycle) — so whoever ends it can bank the husk for the next send
// of any node on its goroutine (the exclusive instants of a sharded run touch
// a pool only while its shard is parked). A free list per node never paid
// back: the nodes that consume (a tree parent, a key's owner) are rarely the
// ones that send next. Whoever banks a husk clears its Payload first, so that
// husks do not pin application messages.
type envPool struct {
	env sim.Bank[envelope]
	dir sim.Bank[directEnvelope]
}

// envPools keeps one envPool an engine; a node holds a pointer to its own.
var envPools = sim.NewLocal[envPool]()

// Recycle implements simnet.Recycler: the network dropped the envelope on
// engine e's goroutine, and with it the payload, which is banked too when it
// is a shell of its own.
func (e *envelope) Recycle(eng *sim.Engine) {
	simnet.Recycle(eng, e.Payload)
	e.Payload = nil
	envPools.Of(eng).env.Put(e)
}

// Recycle implements simnet.Recycler, as envelope's does.
func (e *directEnvelope) Recycle(eng *sim.Engine) {
	simnet.Recycle(eng, e.Payload)
	e.Payload = nil
	envPools.Of(eng).dir.Put(e)
}

// announce tells existing nodes about a rejoined node so they can fold it
// into their own tables.
type announce struct {
	From NodeHandle
}

// WireSize implements simnet.WireSizer.
func (announce) WireSize() int { return handleWireBytes }

// leafExchange shares leaf-set contents between neighbors; Reply suppresses
// the answering exchange to terminate the handshake.
type leafExchange struct {
	From  NodeHandle
	CW    []NodeHandle
	CCW   []NodeHandle
	Reply bool
}

// WireSize implements simnet.WireSizer.
func (m *leafExchange) WireSize() int {
	return handleWireBytes*(1+len(m.CW)+len(m.CCW)) + 1
}

// rtExchange shares one routing-table row between peers; the receiver folds
// the entries in and (unless Reply) answers with its own row of the same
// index, the periodic routing-table maintenance of Pastry §2.
type rtExchange struct {
	From    NodeHandle
	Row     int
	Entries []NodeHandle
	Reply   bool
}

// WireSize implements simnet.WireSizer.
func (m *rtExchange) WireSize() int {
	return handleWireBytes*(1+len(m.Entries)) + 4 + 1
}

// pingMsg probes a peer for liveness.
type pingMsg struct {
	Seq  uint64
	From NodeHandle
}

// WireSize implements simnet.WireSizer.
func (pingMsg) WireSize() int { return 8 + handleWireBytes }

// pongMsg answers a pingMsg.
type pongMsg struct {
	Seq  uint64
	From NodeHandle
}

// WireSize implements simnet.WireSizer.
func (pongMsg) WireSize() int { return 8 + handleWireBytes }
