// Package simnet is the in-process message transport that connects the
// Pastry nodes of a simulated datacenter. Delivery latency follows the
// physical topology (same rack is faster than cross-pod), messages arrive
// asynchronously through the discrete-event engine, and per-node traffic
// counters feed the paper's overhead experiments (Table I, Fig. 15).
//
// A fault is one of the network's two primitives: Crash drops a node's
// traffic and discards its handler, and Restart rebuilds it through the
// registered restarter; a node crashed with no Restart after it stays down.
// A caller schedules them in the engine's global band (sim.Engine.AtGlobal).
// Message loss is one base rate (WithDropRate).
package simnet

import (
	"fmt"
	"slices"
	"time"

	"vbundle/internal/obs"
	"vbundle/internal/sim"
)

// Addr identifies an endpoint on the network. In v-Bundle simulations the
// address of a node equals its server index in the topology.
type Addr int

// Nowhere is an invalid address, usable as a sentinel.
const Nowhere Addr = -1

// Message is any value carried by the network (an alias, so handlers may
// be written with plain any). Concrete message types may implement
// WireSizer to report realistic sizes for the overhead counters; otherwise
// DefaultWireSize is assumed.
type Message = any

// WireSizer lets a message type report its approximate serialized size in
// bytes for traffic accounting.
type WireSizer interface {
	WireSize() int
}

// DefaultWireSize is the byte size charged for messages that do not
// implement WireSizer.
const DefaultWireSize = 64

// WireSize is the byte size the traffic counters charge for msg: its own
// WireSize when it implements WireSizer, DefaultWireSize otherwise. A
// message carrying another as its payload adds the payload's WireSize.
func WireSize(msg Message) int {
	if ws, ok := msg.(WireSizer); ok {
		return ws.WireSize()
	}
	return DefaultWireSize
}

// Recycler is implemented by a message shell that lives on a free list of
// the engine goroutine that banks it. A delivered shell is banked by the
// handler that consumes it; one the network drops — its sender is dead, the
// drop draw loses it, or its destination is dead when it arrives — is handed
// to Recycle on the engine of the goroutine that drops it, so that a shell
// carved from a slab is never stranded in its chunk. A message that is shared
// (one value sent to many) or owned by someone other than the network while
// it is in flight must not implement it.
type Recycler interface {
	Recycle(e *sim.Engine)
}

// Recycle banks msg on e's free list when it is a Recycler: what the network
// does with a message it drops, and what a layer above does with one that
// ends unconsumed.
func Recycle(e *sim.Engine, msg Message) {
	if r, ok := msg.(Recycler); ok {
		r.Recycle(e)
	}
}

// Handler receives messages delivered to a node.
type Handler interface {
	HandleMessage(from Addr, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from Addr, msg Message) { f(from, msg) }

var _ Handler = HandlerFunc(nil)

// LatencyFunc returns the one-way delivery latency between two addresses.
type LatencyFunc func(a, b Addr) time.Duration

// Counters accumulates per-node traffic statistics. Counts are cumulative
// until ResetCounters.
type Counters struct {
	// MsgsSent and MsgsReceived count delivered messages (drops excluded
	// from MsgsReceived, included in MsgsSent).
	MsgsSent, MsgsReceived int
	// BytesSent and BytesReceived use WireSizer sizes when available.
	BytesSent, BytesReceived int
}

// Network is a simulated datagram network. It must be driven by exactly one
// sim.Engine, and an engine drives at most one network: the network is its
// delivery handler (a second New on one engine panics). All handlers run on
// the engine's event loop.
//
// Delivery is batched by default: all messages due at one (destination,
// timestamp) pair are coalesced into a single engine event that drains the
// destination's inbox ring buffer, so a fan-in of k messages costs one
// event and zero per-message closures instead of k closure allocations and
// k queue operations. Messages within a batch are delivered in send order
// and liveness and counter checks happen per message at delivery time, so
// drop, crash and accounting semantics are those of one event per message
// (the reference model the delivery-mode equivalence tests compare against).
type Network struct {
	engine   *sim.Engine
	latency  LatencyFunc
	nodes    []slot
	counters []Counters
	dropRate float64

	inboxes []inbox
	// scratches holds one extraction buffer per shard (index 0 on a serial
	// engine): a flush fully consumes its shard's buffer before returning.
	scratches [][]pending

	// sendSeq numbers each node's sends monotonically (never reset, unlike
	// the counters). The (source, send index) pair keys delivery order and
	// the drop draws, making both independent of the shard layout.
	sendSeq []uint64
	// dropSalt seeds the per-message drop hash, derived from the engine seed.
	dropSalt uint64

	// Sharded-engine plumbing (nil on a serial engine): each address is
	// pinned to the shard engine of a deterministic hash of the address.
	// Same-shard traffic is delivered exactly like the serial path;
	// cross-shard sends park in the sender shard's outbox and are merged
	// into destination inboxes at every window barrier.
	engines  []*sim.Engine
	shardID  []int32
	outboxes [][]outMsg

	// restarter rebuilds a crashed node's stack when Restart fires. It must
	// end by attaching a handler for the address (a rebuilt pastry node does
	// this in its constructor); Restart panics otherwise.
	restarter func(addr Addr)

	// trace is the run's flight recorder (nil when disabled). obsSrc caches
	// one recorder source per address; with recording off it is nil, and
	// every read goes through source, which then returns the nil no-op
	// recorder.
	trace  *obs.Trace
	obsSrc []*obs.Source
}

// outMsg is one cross-shard message parked in its sender shard's outbox
// until the next window barrier.
type outMsg struct {
	dst Addr
	p   pending
}

type slot struct {
	handler Handler
	alive   bool
}

// pending is one undelivered message parked in a destination's inbox. key is
// the message's delivery key — (source, send index) packed into the band-0
// key layout — which orders the batch at flush time identically in serial and
// sharded runs, and from which the flush reads the source back (sourceOf).
type pending struct {
	at   time.Duration
	key  uint64
	size int
	msg  Message
}

// inboxSlots is the capacity every inbox starts with (New carves it from a
// slab; buf is never empty). Two, because that is what inboxes hold: nodes
// by the deepest their inbox ever got over a whole run of the repo benchmark
// (counter in push, seed 1, commit e61c98e):
//
//	deepest inbox    ladder   boot_routed   rebalance   serve_hot
//	0                     0        21 180           0       6 719
//	1               131 100           452          53         189
//	2                     0        10 029       5 770         487
//	3-4                   0           889       2 004         806
//	5-8                   0           239         329          11
//	> 8                   7            20          57           1
//	nodes           131 107        32 809       8 213       8 213
//	within 2 slots  99.995 %       96.5 %      70.9 %      90.0 %
//
// The few deep ones are tree hubs and gateways (ladder: one inbox each up to
// 16, 32, 8192, 65536 and 131072 messages, two up to 512; rebalance: up to
// 8192). Eight slots cost every server 320 B for depths almost none reaches.
const inboxSlots = 2

// inbox is a growable circular buffer of a node's in-flight messages. It
// starts as the node's chunk of the slab and moves to a private buffer,
// doubling, when it outgrows the chunk.
//
// Ordering invariant: the messages are in due-time order, those due at one
// instant in the order they were pushed. So whether a flush is already
// scheduled for an instant is a binary search (one comparison when the
// instant is the latest yet, which a send usually is), and the messages due at
// an instant are one contiguous run. That run sits at the head whenever the
// network asks for it: every due time in the inbox has exactly one flush event
// pending, events run in time order, so the flush that fires first is the one
// for the inbox's minimum, and each flush takes its whole run. Extraction is
// O(batch) and moves nothing else. A message due earlier than the tail is
// inserted in place, shifting the shorter side of the ring; that is the rare
// path of a send and the common one of a barrier merge, which pushes each
// shard's outbox in turn.
type inbox struct {
	buf  []pending // len(buf) is a power of two
	head int
	n    int
}

func (b *inbox) slotAt(i int) *pending { return &b.buf[(b.head+i)&(len(b.buf)-1)] }

// rank returns the number of parked messages due before t.
func (b *inbox) rank(t time.Duration) int {
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.slotAt(mid).at < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (b *inbox) push(p pending) {
	if b.n == len(b.buf) {
		grown := make([]pending, 2*len(b.buf))
		for i := 0; i < b.n; i++ {
			grown[i] = *b.slotAt(i)
		}
		b.buf = grown
		b.head = 0
	}
	i := b.n
	if i > 0 && p.at < b.slotAt(i-1).at {
		i = b.rank(p.at + 1) // behind everything due at or before p.at
		b.open(i)
	}
	*b.slotAt(i) = p
	b.n++
}

// open frees position i of a buffer with room to spare by moving whichever
// side of it is shorter one slot outwards: [i, n) towards the tail, or [0, i)
// and the head with it towards the front. Each side is at most two contiguous
// stretches of buf and one message crossing the seam between its ends.
func (b *inbox) open(i int) {
	buf, c := b.buf, len(b.buf)
	if b.n-i <= i {
		from := (b.head + i) & (c - 1)
		end := from + b.n - i
		if end > c {
			copy(buf[1:], buf[:end-c])
		}
		if end >= c {
			buf[0] = buf[c-1]
			end = c - 1
		}
		copy(buf[from+1:], buf[from:end])
		return
	}
	from := b.head
	if from == 0 {
		from = c
	}
	end := from + i
	copy(buf[from-1:], buf[from:min(end, c)])
	if end > c {
		buf[c-1] = buf[0]
		copy(buf, buf[1:end-c])
	}
	b.head = from - 1
}

// hasDue reports whether any parked message is due exactly at t (in which
// case a flush event for t is already scheduled).
func (b *inbox) hasDue(t time.Duration) bool {
	if b.n == 0 {
		return false
	}
	if last := b.slotAt(b.n - 1).at; t >= last {
		return t == last
	}
	return b.slotAt(b.rank(t)).at == t
}

// extract appends every message due at t to dst in the order they were pushed,
// takes them out of the inbox, and returns dst. Nothing parked may be due
// before t, so the run is at the head: a flush asks at the inbox's minimum.
func (b *inbox) extract(t time.Duration, dst []pending) []pending {
	k := 0
	for k < b.n && b.slotAt(k).at == t {
		k++
	}
	dst = slices.Grow(dst, k)
	for i := 0; i < k; i++ {
		p := b.slotAt(i)
		dst = append(dst, *p)
		*p = pending{} // release message references
	}
	b.head = (b.head + k) & (len(b.buf) - 1)
	b.n -= k
	return dst
}

// Option configures a Network.
type Option func(*Network)

// WithDropRate makes the network drop each message independently with
// probability p (0 <= p <= 1; at 1 nothing is delivered), by a draw hashed
// from the engine's seed and the message's source and send index.
func WithDropRate(p float64) Option {
	return func(n *Network) { n.dropRate = p }
}

// WithTrace attaches a flight recorder: message drops and fault injections
// are recorded, per-address recorder sources become available through
// TraceSource for the protocol layers above, and the network's traffic
// totals register as gauges in the trace's counter registry.
func WithTrace(tr *obs.Trace) Option {
	return func(n *Network) { n.trace = tr }
}

// New creates a network of size nodes whose pairwise latency is given by
// latency. Nodes are created dead; Attach brings them online.
func New(engine *sim.Engine, size int, latency LatencyFunc, opts ...Option) *Network {
	if size < 0 {
		panic("simnet: negative size")
	}
	n := &Network{
		engine:   engine,
		latency:  latency,
		nodes:    make([]slot, size),
		counters: make([]Counters, size),
		inboxes:  make([]inbox, size),
		sendSeq:  make([]uint64, size),
		dropSalt: splitmix64(uint64(engine.Seed())),
	}
	for _, o := range opts {
		o(n)
	}
	if n.trace != nil {
		n.obsSrc = make([]*obs.Source, size)
		for a := range n.obsSrc {
			n.obsSrc[a] = n.trace.Source(int32(a))
		}
		reg := n.trace.Registry()
		reg.RegisterGauge("net/msgs_sent", func() int64 { return n.sumCounters(func(c *Counters) int { return c.MsgsSent }) })
		reg.RegisterGauge("net/msgs_received", func() int64 { return n.sumCounters(func(c *Counters) int { return c.MsgsReceived }) })
		reg.RegisterGauge("net/bytes_sent", func() int64 { return n.sumCounters(func(c *Counters) int { return c.BytesSent }) })
		reg.RegisterGauge("net/bytes_received", func() int64 { return n.sumCounters(func(c *Counters) int { return c.BytesReceived }) })
	}
	k := engine.ShardCount()
	if k > 1 {
		n.engines = make([]*sim.Engine, size)
		n.shardID = make([]int32, size)
		for a := 0; a < size; a++ {
			sh := int32(splitmix64(uint64(a)) % uint64(k))
			n.shardID[a] = sh
			n.engines[a] = engine.Shard(int(sh))
		}
		n.outboxes = make([][]outMsg, k)
		engine.OnBarrier(n.mergeOutboxes)
	}
	n.scratches = make([][]pending, k)
	// Every node that ever receives a message needs its first inboxSlots
	// slots, and under maintenance or an aggregation tree that is every
	// node: carve them from one slab at construction instead of one
	// allocation per node at its first message. A busier inbox outgrows its
	// chunk into a private buffer; the chunk's capacity is clipped, so it
	// never grows into its neighbour's.
	slab := make([]pending, inboxSlots*size)
	for a := range n.inboxes {
		n.inboxes[a].buf = slab[a*inboxSlots : (a+1)*inboxSlots : (a+1)*inboxSlots]
	}
	// A flush event's key is its destination, and every engine the network
	// schedules on hands it to flushInbox: steady-state sends allocate
	// nothing, and there is no callback a destination to make.
	flush := n.flushInbox
	for sh := 0; sh < k; sh++ {
		engine.Shard(sh).SetDeliveryHandler(flush)
	}
	return n
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash
// used for the shard assignment and the per-message drop draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deliveryKey packs (source, send index) into the band-0 key layout: the
// source address in the high bits, its send counter below. Delivery order by
// key is therefore send order per source, with concurrent sources interleaved
// the same way regardless of engine mode or shard layout.
func deliveryKey(src Addr, idx uint64) uint64 {
	return uint64(src)<<38 | idx
}

// sourceOf returns the source address packed into a delivery key.
func sourceOf(key uint64) Addr { return Addr(key >> 38) }

// dropDraw returns the pseudo-uniform draw in [0,1) deciding the fate of the
// idx-th send of src. Hashing (salt, source, send index) instead of consuming
// the engine rng keeps the draw — and hence the surviving message set —
// independent of event execution order across engine modes.
func (n *Network) dropDraw(src Addr, idx uint64) float64 {
	h := splitmix64(n.dropSalt ^ deliveryKey(src, idx))
	return float64(h>>11) / (1 << 53)
}

// engineFor returns the engine that owns addr: its shard engine under a
// sharded root, the single engine otherwise.
func (n *Network) engineFor(a Addr) *sim.Engine {
	if n.engines == nil {
		return n.engine
	}
	return n.engines[a]
}

// EngineFor returns the engine that owns addr. Node-local scheduling (timers,
// probes, maintenance) must go through the owning engine so it runs on the
// node's shard; EngineFor is how nodes obtain it.
func (n *Network) EngineFor(a Addr) *sim.Engine {
	n.check(a)
	return n.engineFor(a)
}

// mergeOutboxes moves every parked cross-shard message into its destination's
// inbox, scheduling the batch flush exactly as a same-shard send would. It
// runs at window barriers on the root goroutine with all shards idle. Merge
// order across outboxes is immaterial: the set of (destination, instant)
// flush events does not depend on it, and each batch is sorted by delivery
// key at flush time.
//
// A message due before its destination shard's clock panics: the engine
// would clamp its flush to the clock, and the flush, which takes only what
// is due at its own instant, would leave the message at the head of the
// inbox for good, and every later message to that node behind it. The
// lookahead rules it out in a window; outside one it means a shard's clock
// was not raised with the others.
func (n *Network) mergeOutboxes() {
	for sh := range n.outboxes {
		out := n.outboxes[sh]
		for i := range out {
			m := &out[i]
			eng := n.engines[m.dst]
			if m.p.at < eng.Now() {
				panic(fmt.Sprintf("simnet: a cross-shard message to node %d is due at %v, behind its shard's clock %v", m.dst, m.p.at, eng.Now()))
			}
			box := &n.inboxes[m.dst]
			if !box.hasDue(m.p.at) {
				eng.AtDelivery(m.p.at, uint64(m.dst))
			}
			box.push(m.p)
			out[i] = outMsg{}
		}
		n.outboxes[sh] = out[:0]
	}
}

func (n *Network) sumCounters(field func(*Counters) int) int64 {
	var sum int64
	for i := range n.counters {
		sum += int64(field(&n.counters[i]))
	}
	return sum
}

// Engine returns the event engine driving the network.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Trace returns the attached flight recorder (nil when recording is off).
func (n *Network) Trace() *obs.Trace { return n.trace }

// TraceSource returns addr's recorder source — the stream every protocol
// layer on that node emits to. It is nil (a no-op recorder) when tracing is
// disabled, so callers cache and use it unconditionally.
func (n *Network) TraceSource(addr Addr) *obs.Source {
	n.check(addr)
	return n.source(addr)
}

// source is addr's recorder source, nil when tracing is off.
func (n *Network) source(addr Addr) *obs.Source {
	if n.obsSrc == nil {
		return nil
	}
	return n.obsSrc[addr]
}

// Attach registers handler at addr and marks the node alive. Attaching over
// a live node replaces its handler.
func (n *Network) Attach(addr Addr, handler Handler) {
	n.check(addr)
	if handler == nil {
		panic("simnet: Attach with nil handler")
	}
	n.nodes[addr] = slot{handler: handler, alive: true}
}

// SetRestarter registers the rebuild hook Restart invokes for crashed
// nodes. There is one restarter per network: crash recovery is a property
// of the stack above, not of an individual fault site.
func (n *Network) SetRestarter(fn func(addr Addr)) { n.restarter = fn }

// Crash marks the node dead and discards its handler: all traffic to or
// from it is dropped, and every piece of in-memory state the handler closed
// over — leaf sets, lease tables, placement maps — is unreachable from the
// network's point of view. The node comes back only through Restart (or a
// fresh Attach). Crashing a crashed node is a no-op.
func (n *Network) Crash(addr Addr) {
	n.check(addr)
	was := n.nodes[addr].alive
	n.nodes[addr] = slot{}
	if was {
		// Fault injections run at exclusive global instants (or from idle
		// test code), so writing the victim's own source is race-free.
		n.source(addr).Instant(n.engine.Now(), obs.KindCrash, obs.NoRef, 0, 0)
	}
}

// Restart reboots a crashed node through the registered restarter: the
// restarter rebuilds the node's stack from scratch — plus whatever its
// durable store held — and attaches the new handler. Restarting a live node
// is a no-op; restarting without a restarter, or with a restarter that fails
// to attach a live handler, panics.
func (n *Network) Restart(addr Addr) {
	n.check(addr)
	if n.nodes[addr].alive {
		return
	}
	if n.restarter == nil {
		panic(fmt.Sprintf("simnet: Restart(%d) without a restarter (SetRestarter)", addr))
	}
	n.source(addr).Instant(n.engine.Now(), obs.KindRestart, obs.NoRef, 0, 0)
	n.restarter(addr)
	if n.nodes[addr].handler == nil || !n.nodes[addr].alive {
		panic(fmt.Sprintf("simnet: restarter left node %d without a live handler", addr))
	}
}

// Alive reports whether the node is attached and not crashed.
func (n *Network) Alive(addr Addr) bool {
	return addr >= 0 && int(addr) < len(n.nodes) && n.nodes[addr].alive
}

// Send delivers msg from src to dst after the topology latency. Sends from
// or to dead nodes are silently dropped, as are a dropRate fraction of all
// messages. Send is charged to the sender's counters even if the message is
// later dropped (the bytes left the NIC). A dropped message is recycled.
func (n *Network) Send(src, dst Addr, msg Message) {
	n.check(src)
	n.check(dst)
	size := WireSize(msg)
	if n.nodes[src].alive {
		n.counters[src].MsgsSent++
		n.counters[src].BytesSent += size
	} else {
		Recycle(n.engineFor(src), msg)
		return
	}
	idx := n.sendSeq[src]
	n.sendSeq[src]++
	if n.dropRate > 0 && n.dropDraw(src, idx) < n.dropRate {
		// Recorded on the sender: the drop decision is made here, with the
		// sender's clock, identically in every engine mode.
		n.source(src).Instant(n.engineFor(src).Now(), obs.KindDrop, obs.NoRef, int64(dst), int64(size))
		Recycle(n.engineFor(src), msg)
		return
	}
	delay := n.latency(src, dst)
	key := deliveryKey(src, idx)
	at := n.engineFor(src).Now() + delay
	if n.engines != nil && n.shardID[src] != n.shardID[dst] {
		// Cross-shard: park in the sender shard's outbox. The latency is at
		// least the engine's lookahead, so the message lands beyond every
		// shard's window horizon and the barrier merge schedules it in time.
		// The sender's own window is capped so it does not outrun the
		// consequences (a reply chain can reach back from at+lookahead).
		sh := n.shardID[src]
		n.outboxes[sh] = append(n.outboxes[sh], outMsg{dst: dst,
			p: pending{at: at, key: key, size: size, msg: msg}})
		n.engines[src].NoteCrossShardSend(at)
		return
	}
	box := &n.inboxes[dst]
	if !box.hasDue(at) {
		// First message bound for dst at this instant: schedule its flush.
		// Later same-(dst, at) sends just park in the inbox for free.
		n.engineFor(dst).AtDelivery(at, uint64(dst))
	}
	box.push(pending{at: at, key: key, size: size, msg: msg})
}

// flushInbox is the engines' delivery handler: key is the destination dst of
// the flush event. It delivers every message due for dst at the current
// virtual time, in delivery-key order — per-source send order, sources
// interleaved by (source, send index), identical in serial and sharded runs.
// Liveness is re-checked before each message, so a handler that crashes dst
// mid-batch stops the remainder of the batch, which is recycled.
func (n *Network) flushInbox(key uint64) {
	dst := Addr(key)
	sh := 0
	if n.shardID != nil {
		sh = int(n.shardID[dst])
	}
	batch := n.inboxes[dst].extract(n.engineFor(dst).Now(), n.scratches[sh][:0])
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b pending) int {
			if a.key < b.key {
				return -1
			}
			return 1
		})
	}
	for i := range batch {
		p := &batch[i]
		s := n.nodes[dst]
		if s.alive {
			n.counters[dst].MsgsReceived++
			n.counters[dst].BytesReceived += p.size
			s.handler.HandleMessage(sourceOf(p.key), p.msg)
		} else {
			Recycle(n.engineFor(dst), p.msg)
		}
		*p = pending{} // release message references
	}
	n.scratches[sh] = batch[:0]
}

// AllCounters returns a copy of every node's counters, indexed by address.
func (n *Network) AllCounters() []Counters {
	out := make([]Counters, len(n.counters))
	copy(out, n.counters)
	return out
}

// ResetCounters zeroes all traffic counters; the overhead experiments call
// this at round boundaries to measure per-round cost.
func (n *Network) ResetCounters() {
	for i := range n.counters {
		n.counters[i] = Counters{}
	}
}

func (n *Network) check(addr Addr) {
	if addr < 0 || int(addr) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: address %d out of range [0,%d)", addr, len(n.nodes)))
	}
}
