package pastry

import (
	"fmt"
	"sort"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// prng is a tiny splitmix64 sequence generator. It only has to be
// deterministic and well-mixed — maintenance peer picks, not statistics —
// and being a plain value it embeds in Node without heap objects.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n). The modulo bias is irrelevant here: draws
// pick maintenance peers, they are not statistical samples.
func (p *prng) Intn(n int) int { return int(p.next() % uint64(n)) }

// Node is one Pastry overlay participant. All methods must be called from
// the node's engine event loop — its shard's goroutine under a sharded
// engine, the single engine goroutine otherwise.
//
// What is the same for every node of a ring — configuration, network,
// proximity metric, identifier directory — is read through ring, and what
// only failure detection and maintenance touch sits behind upkeep: a node
// that routes, and nothing else, pays for neither.
type Node struct {
	ring   *Ring
	handle NodeHandle
	engine *sim.Engine
	// rng is the node's private random stream (maintenance peer picks),
	// seeded from (engine seed, address): draws never interleave with other
	// nodes' draws, so the sequence is identical across engine modes. It is
	// embedded by value — a math/rand.Rand would cost two heap objects per
	// node, which is measurable in ring construction at 8k+ servers.
	rng prng

	// apps is the application registry. Nodes register at most a handful of
	// applications, so a tiny linear slice backed by the inline appsBuf
	// replaces the former map: no per-node hash state, no allocation for
	// the common case.
	apps    []appEntry
	appsBuf [3]appEntry
	// appCache memoizes the last apps lookup: routed traffic overwhelmingly
	// targets one application (scribe), and the lookup is on the per-hop
	// critical path of routeEnvelope and deliver.
	appCacheName string
	appCacheApp  App

	// The tables hold refs into the ring's identifier directory (Ring.dir) —
	// a peer's address narrowed to int32, noRef for an empty routing-table
	// slot — and a NodeHandle is materialised from (dir[ref], ref) only where
	// one leaves the node.
	rt        []int32 // flat rtRows×cols table, grown one row at a time
	rtRows    int     // rows currently backed by rt; reads beyond are empty
	leafCW    []int32 // successors, sorted by clockwise distance
	leafCCW   []int32 // predecessors, sorted by counter-clockwise distance
	neighbors []int32 // sorted by proximity to self

	// lastConsidered is the ref consider folded in last, while no table has
	// been written since (noRef otherwise: the zero value is a real ref).
	// Traffic comes in runs from one sender — a spill walk's hops, a gateway's
	// queries, a parent's multicasts — and a second consider of the same peer
	// changes nothing: every slot it could take holds it or a closer peer, and
	// both set inserts find it present or sort it after a full set's last
	// entry. The writers that bypass consider (Forget, Ring.BuildStatic) reset
	// it.
	lastConsidered int32

	// up is nil until the node first probes a peer, starts maintenance, scans
	// its tables (knownNodes); upkeepState makes it.
	up *upkeep

	// pool recycles consumed envelopes among the nodes of this node's engine
	// goroutine (see envPool).
	pool *envPool

	// routeStats accumulates delivered-hops samples for overhead analysis.
	deliveries obs.Counter
	totalHops  obs.Counter
	// hopsHist is the per-node delivery hop-count distribution (nil when
	// tracing is off; merged across nodes at snapshot time).
	hopsHist *obs.Histogram

	// obs is the node's flight-recorder source (nil when tracing is off;
	// every emit is then a single nil-receiver branch).
	obs *obs.Source
}

// upkeep is the state of a node's failure detector and periodic
// maintenance, with the scratch their scans reuse. In a crash-free run
// without maintenance almost no node ever has one.
type upkeep struct {
	pingSeq      uint64
	pendingPings map[uint64]func(alive bool)
	// suspicion counts consecutive failed probes per peer address; any
	// received message clears it.
	suspicion map[simnet.Addr]int

	// maintenance runs maintenanceRound (maintenanceTick).
	maintenance sim.Ticker

	// probeScratch and seenScratch are per-call buffers reused across
	// maintenance rounds and rare-case routing scans. The engine is
	// single-goroutine and neither buffer escapes its call, so reuse is
	// safe and keeps the periodic paths allocation-free.
	probeScratch []int32
	seenScratch  map[int32]struct{}
}

// upkeepState returns the node's upkeep state, making it on first use.
func (n *Node) upkeepState() *upkeep {
	if n.up == nil {
		n.up = &upkeep{
			pendingPings: make(map[uint64]func(bool)),
			suspicion:    make(map[simnet.Addr]int),
			seenScratch:  make(map[int32]struct{}),
		}
	}
	return n.up
}

// noRef marks an empty routing-table slot.
const noRef int32 = -1

// init makes n ring r's node at the given address and attaches it to the
// network. Its tables are blank: Ring.BuildStatic fills them, or Rejoin
// after a crash. NewRing inits the nodes of one []Node in place,
// RebuildNode a node of its own. The leaf halves, the neighborhood set and
// the first rtRows routing-table rows are carved out of ar; a nil arena
// (RebuildNode) allocates them privately.
func (n *Node) init(r *Ring, addr simnet.Addr, ar *refArena, rtRows int) {
	cfg, net := r.cfg, r.net
	// The routing table starts empty and grows by whole rows on first
	// insert (rtSlot): a ring of n nodes only populates about log2(n)/B of
	// the 32 rows, so the dense rows*cols table wasted ~12KB per node —
	// ~100MB of handle slots at 8192 servers.
	*n = Node{
		ring:   r,
		handle: NodeHandle{Id: r.dir[addr], Addr: addr},
		engine: net.EngineFor(addr),
		rng:    prng{state: uint64(net.Engine().Seed()) ^ (uint64(addr)+1)*0x9E3779B97F4A7C15},
		obs:    net.TraceSource(addr),

		lastConsidered: noRef,
	}
	n.pool = envPools.Of(n.engine)
	n.apps = n.appsBuf[:0]
	// Leaf halves carry one slot of insertion scratch beyond their
	// steady-state bound (insertSortedByDist appends before truncating), so
	// the chunks never outgrow the arena; same for the neighborhood set.
	half := cfg.LeafSize / 2
	n.leafCW = ar.take(half + 1)
	n.leafCCW = ar.take(half + 1)
	n.neighbors = ar.take(cfg.NeighborhoodSize + 1)
	n.rt = ar.take(rtRows * cfg.cols())
	if reg := net.Trace().Registry(); reg != nil {
		reg.Register("pastry/deliveries", &n.deliveries)
		reg.Register("pastry/route_hops", &n.totalHops)
		n.hopsHist = &obs.Histogram{}
		reg.RegisterHistogram("pastry/hops", n.hopsHist)
	}
	net.Attach(addr, n)
}

// Handle returns the node's identifier and address.
func (n *Node) Handle() NodeHandle { return n.handle }

// ID returns the node's ring identifier.
func (n *Node) ID() ids.Id { return n.handle.Id }

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.handle.Addr }

// Engine returns the simulation engine driving the node.
func (n *Node) Engine() *sim.Engine { return n.engine }

// Network returns the transport the node is attached to.
func (n *Node) Network() *simnet.Network { return n.ring.net }

// LatencyBetween returns the proximity-metric latency between two network
// addresses; applications use it to rank candidates topologically.
func (n *Node) LatencyBetween(a, b simnet.Addr) time.Duration { return n.ring.lat(a, b) }

// ProximityFloor returns the smallest latency LatencyBetween gives two
// distinct addresses (one LAN hop): a ranking that has found a candidate
// this close can stop looking.
func (n *Node) ProximityFloor() time.Duration { return n.ring.floor }

// appEntry is one (name, application) registration.
type appEntry struct {
	name string
	app  App
}

// Register installs an application under the given name. Registering the
// same name twice panics: it is always a wiring bug.
func (n *Node) Register(name string, app App) {
	for _, e := range n.apps {
		if e.name == name {
			panic(fmt.Sprintf("pastry: app %q registered twice on node %s", name, n.handle.Id.Short()))
		}
	}
	n.apps = append(n.apps, appEntry{name: name, app: app})
}

// app resolves a registered application, serving repeat lookups for the
// same name from a one-entry cache. Registrations are permanent (Register
// panics on duplicates), so the cache never goes stale.
func (n *Node) app(name string) (App, bool) {
	if n.appCacheApp != nil && name == n.appCacheName {
		return n.appCacheApp, true
	}
	for _, e := range n.apps {
		if e.name == name {
			n.appCacheName, n.appCacheApp = name, e.app
			return e.app, true
		}
	}
	return nil, false
}

// DeathObserver is implemented by applications that repair state of their
// own when the node they are registered on declares a peer dead (scribe
// re-grafts its trees). The node tells every registered application that
// has the method, in registration order.
type DeathObserver interface {
	NodeDead(peer NodeHandle)
}

// FindApp returns the first application registered on n that implements T:
// how a layer hands a hook to whichever application above it takes it, with
// no callback stored on every node.
func FindApp[T any](n *Node) (T, bool) {
	for _, e := range n.apps {
		if t, ok := e.app.(T); ok {
			return t, true
		}
	}
	var none T
	return none, false
}

// --- table maintenance ---------------------------------------------------

// HandleOf materialises the handle of a table ref: the refs AdjacentSets
// returns, or any non-empty table entry.
func (n *Node) HandleOf(ref int32) NodeHandle {
	return NodeHandle{Id: n.ring.dir[ref], Addr: simnet.Addr(ref)}
}

// rtSlot returns a pointer to routing-table row l, column d, growing the
// flat table through row l on first use. The returned pointer is only valid
// until the next rtSlot call (growth reallocates). Read-only paths use
// rtGet, which never allocates.
func (n *Node) rtSlot(l, d int) *int32 {
	n.growRows(l + 1)
	return &n.rt[l*n.ring.cfg.cols()+d]
}

// setRow writes routing-table row l whole (Ring.BuildStatic's fill), growing
// the table through it once.
func (n *Node) setRow(l int, row []int32) {
	n.growRows(l + 1)
	copy(n.rt[l*len(row):], row)
}

// growRows extends the table to at least rows rows, every new slot empty.
func (n *Node) growRows(rows int) {
	if rows <= n.rtRows {
		return
	}
	need := rows * n.ring.cfg.cols()
	old := len(n.rt)
	if need <= cap(n.rt) {
		// Arena-backed (or previously grown) table: extend in place.
		n.rt = n.rt[:need]
	} else {
		grown := make([]int32, need)
		copy(grown, n.rt)
		n.rt = grown
	}
	for i := old; i < need; i++ {
		n.rt[i] = noRef // ref 0 is a real node, not "empty"
	}
	n.rtRows = rows
}

// rtGet reads the entry at row l, column d without growing the table; rows
// beyond rtRows read as empty. Routing's hot path — keep it one compare, one
// indexed load and, for a populated slot, one directory load.
func (n *Node) rtGet(l, d int) NodeHandle {
	if l < n.rtRows {
		if ref := n.rt[l*n.ring.cfg.cols()+d]; ref >= 0 {
			return n.HandleOf(ref)
		}
	}
	return NoHandle
}

// RoutingTableSize returns the number of populated routing-table slots.
func (n *Node) RoutingTableSize() int {
	var c int
	for _, ref := range n.rt {
		if ref >= 0 {
			c++
		}
	}
	return c
}

// consider folds a discovered handle into the node's routing state: the
// routing table (kept proximity-optimal), the leaf set, and the neighborhood
// set. It is cheap and idempotent; every protocol message that carries
// handles calls it opportunistically. The handle must be one of this ring's
// (inDirectory): only its address is stored, and its identifier is read back
// from the directory. A handle in a message is: its sender materialised it
// from the directory. Rejoin checks the ones a checkpoint brings.
func (n *Node) consider(h NodeHandle) {
	ref := int32(h.Addr)
	if h.IsNil() || ref == n.lastConsidered || h.Id == n.handle.Id {
		return
	}
	n.rtInsert(h.Id, ref)
	n.leafInsert(h.Id, ref)
	n.neighborInsert(h.Id, ref)
	n.lastConsidered = ref
}

func (n *Node) rtInsert(id ids.Id, ref int32) {
	l := n.handle.Id.CommonPrefixLen(id, n.ring.cfg.B)
	if l >= n.ring.cfg.rows() {
		return // identical identifier; cannot happen for distinct nodes
	}
	slot := n.rtSlot(l, id.DigitAt(l, n.ring.cfg.B))
	switch {
	case *slot < 0:
		*slot = ref
	case *slot == ref:
		// already there
	default:
		// Keep the entry closer by network proximity (Pastry's locality
		// heuristic).
		if n.ring.lat(n.handle.Addr, simnet.Addr(ref)) < n.ring.lat(n.handle.Addr, simnet.Addr(*slot)) {
			*slot = ref
		}
	}
}

// cwDist is the clockwise distance from the local id to x.
func (n *Node) cwDist(x ids.Id) ids.Id { return x.Sub(n.handle.Id) }

// ccwDist is the counter-clockwise distance from the local id to x.
func (n *Node) ccwDist(x ids.Id) ids.Id { return n.handle.Id.Sub(x) }

func (n *Node) leafInsert(id ids.Id, ref int32) {
	half := n.ring.cfg.LeafSize / 2
	n.leafCW = n.insertSortedByDist(n.leafCW, id, ref, half, func(x ids.Id) ids.Id { return n.cwDist(x) })
	n.leafCCW = n.insertSortedByDist(n.leafCCW, id, ref, half, func(x ids.Id) ids.Id { return n.ccwDist(x) })
}

func (n *Node) insertSortedByDist(list []int32, id ids.Id, ref int32, max int, dist func(ids.Id) ids.Id) []int32 {
	d := dist(id)
	// A full half whose farthest entry is strictly nearer than the candidate
	// keeps its list: the insertion would land past the end and be cut off.
	// Most peers a node hears of are that far, so settle them first.
	if len(list) >= max && len(list) > 0 && dist(n.ring.dir[list[len(list)-1]]).Less(d) {
		return list
	}
	pos := sort.Search(len(list), func(i int) bool {
		return !dist(n.ring.dir[list[i]]).Less(d)
	})
	if pos < len(list) && list[pos] == ref {
		return list // already present
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = ref
	if len(list) > max {
		list = list[:max]
	}
	return list
}

func (n *Node) neighborInsert(id ids.Id, ref int32) {
	// consider runs on every envelope and direct message, almost always for
	// a peer already in the set or too far to enter it: settle both cases
	// before paying for the binary search.
	for _, nb := range n.neighbors {
		if nb == ref {
			return
		}
	}
	d := n.ring.lat(n.handle.Addr, simnet.Addr(ref))
	// after reports whether the new peer sorts after nb: farther, or equally
	// far (same rack) and no closer on the ring, which keeps the set
	// deterministic.
	after := func(nb int32) bool {
		if di := n.ring.lat(n.handle.Addr, simnet.Addr(nb)); di != d {
			return di < d
		}
		return ids.CloserTo(n.handle.Id, n.ring.dir[nb], id)
	}
	full := len(n.neighbors) == n.ring.cfg.NeighborhoodSize
	if full && after(n.neighbors[len(n.neighbors)-1]) {
		return
	}
	pos := sort.Search(len(n.neighbors), func(i int) bool { return !after(n.neighbors[i]) })
	if !full {
		n.neighbors = append(n.neighbors, 0)
	}
	copy(n.neighbors[pos+1:], n.neighbors[pos:]) // when full, the last entry falls off
	n.neighbors[pos] = ref
}

// Forget removes every trace of the given node from the local tables; it is
// called when the peer is declared dead.
func (n *Node) Forget(id ids.Id) {
	for i, ref := range n.rt {
		if ref >= 0 && n.ring.dir[ref] == id {
			n.rt[i] = noRef
		}
	}
	n.leafCW = n.removeByID(n.leafCW, id)
	n.leafCCW = n.removeByID(n.leafCCW, id)
	n.neighbors = n.removeByID(n.neighbors, id)
	n.lastConsidered = noRef
}

func (n *Node) removeByID(list []int32, id ids.Id) []int32 {
	out := list[:0]
	for _, ref := range list {
		if n.ring.dir[ref] != id {
			out = append(out, ref)
		}
	}
	return out
}

// AdjacentSets returns the node's proximity-based neighborhood set (closest
// first) and the two halves of its leaf set: predecessors (counter-clockwise,
// nearest first) and successors (clockwise, nearest first) — the order in
// which the placement spill walk ranks candidates. Entries are refs: a ref
// is the peer's address, and HandleOf resolves its identifier. The slices are
// the node's own, not copies: read them before the node handles another
// message, and do not modify or retain them.
func (n *Node) AdjacentSets() (neighborhood, ccw, cw []int32) {
	return n.neighbors[:len(n.neighbors):len(n.neighbors)],
		n.leafCCW[:len(n.leafCCW):len(n.leafCCW)],
		n.leafCW[:len(n.leafCW):len(n.leafCW)]
}

// knownNodes calls fn for every distinct node the local tables reference.
func (n *Node) knownNodes(fn func(NodeHandle)) {
	seen := n.upkeepState().seenScratch
	clear(seen)
	visit := func(ref int32) {
		if ref < 0 {
			return
		}
		if _, ok := seen[ref]; ok {
			return
		}
		seen[ref] = struct{}{}
		fn(n.HandleOf(ref))
	}
	for _, ref := range n.rt {
		visit(ref)
	}
	for _, ref := range n.leafCW {
		visit(ref)
	}
	for _, ref := range n.leafCCW {
		visit(ref)
	}
	for _, ref := range n.neighbors {
		visit(ref)
	}
}

// Peers returns every distinct node the local tables currently reference —
// the routing-state checkpoint a durable store persists for crash recovery.
func (n *Node) Peers() []NodeHandle {
	var out []NodeHandle
	n.knownNodes(func(h NodeHandle) { out = append(out, h) })
	return out
}

// Rejoin is the ring's one join: it bootstraps a rebuilt node from a peer
// checkpoint. It folds every checkpointed peer that is still alive into the
// fresh tables and announces the node to each node now known, so that their
// tables re-adopt it. Peers that died while we were down are skipped
// here and never enter the fresh tables; whatever the checkpoint missed,
// the periodic leaf/routing-table exchanges repair. A checkpoint is input
// from outside the ring: a peer the directory does not name is skipped as
// well, so a checkpoint written by another ring cannot poison the tables;
// Rejoin returns how many of those it skipped.
func (n *Node) Rejoin(peers []NodeHandle) (foreign int) {
	for _, h := range peers {
		if !inDirectory(n.ring.dir, h) {
			foreign++
			continue
		}
		if h.Id == n.handle.Id || !n.ring.net.Alive(h.Addr) {
			continue
		}
		n.consider(h)
	}
	n.knownNodes(func(h NodeHandle) {
		n.ring.net.Send(n.handle.Addr, h.Addr, announce{From: n.handle})
	})
	return foreign
}

// inDirectory reports whether h names a node of the ring dir describes: its
// address is one of the ring's and its identifier is the one that address
// carries.
func inDirectory(dir []ids.Id, h NodeHandle) bool {
	return h.Addr >= 0 && int(h.Addr) < len(dir) && dir[h.Addr] == h.Id
}

// --- message dispatch ------------------------------------------------------

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(from simnet.Addr, msg simnet.Message) {
	if n.up != nil {
		delete(n.up.suspicion, from) // any traffic proves the peer alive
	}
	switch m := msg.(type) {
	case *envelope:
		n.consider(m.Source)
		n.routeEnvelope(m)
	case *directEnvelope:
		n.consider(m.From)
		if app, ok := n.app(m.App); ok {
			app.HandleDirect(m.From, m.Payload)
		}
		m.Payload = nil
		n.pool.dir.Put(m)
	case announce:
		n.consider(m.From)
	case *leafExchange:
		n.handleLeafExchange(m)
	case *rtExchange:
		n.handleRTExchange(m)
	case pingMsg:
		n.consider(m.From)
		n.ring.net.Send(n.handle.Addr, m.From.Addr, pongMsg{Seq: m.Seq, From: n.handle})
	case pongMsg:
		n.consider(m.From)
		if n.up == nil {
			return // never pinged anyone: a pong for a node this one replaced
		}
		if cb, ok := n.up.pendingPings[m.Seq]; ok {
			delete(n.up.pendingPings, m.Seq)
			cb(true)
		}
	}
}

// SendDirect delivers payload to app on the node named by to, bypassing
// key-based routing (one network hop).
func (n *Node) SendDirect(to NodeHandle, app string, payload simnet.Message) {
	env := n.pool.dir.Take()
	env.App, env.From, env.Payload = app, n.handle, payload
	n.ring.net.Send(n.handle.Addr, to.Addr, env)
}

// Ping probes a peer and invokes cb with its liveness verdict after at most
// the configured probe timeout.
func (n *Node) Ping(to NodeHandle, cb func(alive bool)) {
	up := n.upkeepState()
	up.pingSeq++
	seq := up.pingSeq
	up.pendingPings[seq] = cb
	n.ring.net.Send(n.handle.Addr, to.Addr, pingMsg{Seq: seq, From: n.handle})
	n.engine.After(probeTimeout, func() {
		if cb, ok := up.pendingPings[seq]; ok {
			delete(up.pendingPings, seq)
			cb(false)
		}
	})
}

// declareDead forgets the peer and tells the applications that observe
// deaths, then starts leaf-set repair if the peer occupied a leaf position.
func (n *Node) declareDead(h NodeHandle) {
	wasLeaf := n.containsID(n.leafCW, h.Id) || n.containsID(n.leafCCW, h.Id)
	n.Forget(h.Id)
	for _, e := range n.apps {
		if o, ok := e.app.(DeathObserver); ok {
			o.NodeDead(h)
		}
	}
	if wasLeaf {
		n.repairLeafSet()
	}
}

func (n *Node) containsID(list []int32, id ids.Id) bool {
	for _, ref := range list {
		if n.ring.dir[ref] == id {
			return true
		}
	}
	return false
}

// leafSnapshot materialises the current leaf-set halves for embedding in a
// message.
func (n *Node) leafSnapshot() (cw, ccw []NodeHandle) {
	return n.handles(n.leafCW), n.handles(n.leafCCW)
}

// handles materialises the handles of refs.
func (n *Node) handles(refs []int32) []NodeHandle {
	out := make([]NodeHandle, len(refs))
	for i, ref := range refs {
		out[i] = n.HandleOf(ref)
	}
	return out
}

// repairLeafSet asks the farthest live leaf on each side for its leaf set,
// the standard Pastry repair that refills holes left by failures.
func (n *Node) repairLeafSet() {
	if len(n.leafCW) > 0 {
		cw, ccw := n.leafSnapshot()
		n.ring.net.Send(n.handle.Addr, simnet.Addr(n.leafCW[len(n.leafCW)-1]),
			&leafExchange{From: n.handle, CW: cw, CCW: ccw})
	}
	if len(n.leafCCW) > 0 {
		cw, ccw := n.leafSnapshot()
		n.ring.net.Send(n.handle.Addr, simnet.Addr(n.leafCCW[len(n.leafCCW)-1]),
			&leafExchange{From: n.handle, CW: cw, CCW: ccw})
	}
}

func (n *Node) handleLeafExchange(m *leafExchange) {
	n.consider(m.From)
	for _, h := range m.CW {
		n.consider(h)
	}
	for _, h := range m.CCW {
		n.consider(h)
	}
	if !m.Reply {
		cw, ccw := n.leafSnapshot()
		n.ring.net.Send(n.handle.Addr, m.From.Addr, &leafExchange{
			From: n.handle, CW: cw, CCW: ccw, Reply: true,
		})
	}
}

// StartMaintenance begins periodic leaf-set exchange and liveness probing.
// It is idempotent.
func (n *Node) StartMaintenance() {
	n.upkeepState().maintenance.Start((*maintenanceTick)(n))
}

// StopMaintenance halts periodic maintenance.
func (n *Node) StopMaintenance() {
	if n.up != nil {
		n.up.maintenance.Stop()
	}
}

// maintenanceTick is the node as what its maintenance ticker runs.
type maintenanceTick Node

func (t *maintenanceTick) Fire() { (*Node)(t).maintenanceRound() }
func (t *maintenanceTick) Period() (*sim.Engine, time.Duration) {
	return t.engine, maintenanceInterval
}

func (n *Node) maintenanceRound() {
	// Exchange leaf sets with immediate ring neighbors to keep the ring
	// consistent as membership changes.
	if len(n.leafCW) > 0 {
		cw, ccw := n.leafSnapshot()
		n.ring.net.Send(n.handle.Addr, simnet.Addr(n.leafCW[0]), &leafExchange{From: n.handle, CW: cw, CCW: ccw})
	}
	if len(n.leafCCW) > 0 {
		cw, ccw := n.leafSnapshot()
		n.ring.net.Send(n.handle.Addr, simnet.Addr(n.leafCCW[0]), &leafExchange{From: n.handle, CW: cw, CCW: ccw})
	}
	// Exchange one routing-table row with a random entry of that row: the
	// periodic routing-table maintenance that refreshes stale entries and
	// spreads knowledge of failures beyond the leaf sets.
	n.rtMaintenance()
	// Probe a few random leaf-set members for liveness.
	up := n.upkeepState()
	candidates := append(up.probeScratch[:0], n.leafCW...)
	candidates = append(candidates, n.leafCCW...)
	up.probeScratch = candidates
	if len(candidates) == 0 {
		return
	}
	for i := 0; i < probesPerRound && i < len(candidates); i++ {
		n.probe(n.HandleOf(candidates[n.rng.Intn(len(candidates))]))
	}
}

// rtMaintenance picks a random populated routing-table row and swaps it
// with a random peer from that row.
func (n *Node) rtMaintenance() {
	rows := n.ring.cfg.rows()
	start := n.rng.Intn(rows)
	for k := 0; k < rows; k++ {
		row := (start + k) % rows
		entries := n.rowEntries(row)
		if len(entries) == 0 {
			continue
		}
		peer := entries[n.rng.Intn(len(entries))]
		n.ring.net.Send(n.handle.Addr, peer.Addr, &rtExchange{
			From: n.handle, Row: row, Entries: entries,
		})
		return
	}
}

// rowEntries returns the populated entries of one routing-table row. The
// slice is freshly allocated (sized to the row) because callers embed it in
// messages that outlive the call.
func (n *Node) rowEntries(row int) []NodeHandle {
	out := make([]NodeHandle, 0, n.ring.cfg.cols())
	for col := 0; col < n.ring.cfg.cols(); col++ {
		if e := n.rtGet(row, col); !e.IsNil() {
			out = append(out, e)
		}
	}
	return out
}

func (n *Node) handleRTExchange(m *rtExchange) {
	n.consider(m.From)
	for _, h := range m.Entries {
		n.consider(h)
	}
	if m.Reply {
		return
	}
	if m.Row < 0 || m.Row >= n.ring.cfg.rows() {
		return
	}
	n.ring.net.Send(n.handle.Addr, m.From.Addr, &rtExchange{
		From: n.handle, Row: m.Row, Entries: n.rowEntries(m.Row), Reply: true,
	})
}

// probe pings a peer; failures re-probe immediately until probeRetries
// consecutive misses execute the death verdict, so the detector tolerates
// heavy message loss while still catching real crashes within one round.
func (n *Node) probe(target NodeHandle) {
	suspicion := n.upkeepState().suspicion
	n.Ping(target, func(alive bool) {
		if alive {
			delete(suspicion, target.Addr)
			return
		}
		suspicion[target.Addr]++
		if suspicion[target.Addr] >= probeRetries {
			delete(suspicion, target.Addr)
			n.declareDead(target)
			return
		}
		n.probe(target)
	})
}

// Obs returns the node's flight-recorder source, shared by the protocol
// layers stacked on the node (nil when tracing is off).
func (n *Node) Obs() *obs.Source { return n.obs }

var _ simnet.Handler = (*Node)(nil)

// String identifies the node in logs.
func (n *Node) String() string {
	return fmt.Sprintf("pastry[%s@%d]", n.handle.Id.Short(), n.handle.Addr)
}
