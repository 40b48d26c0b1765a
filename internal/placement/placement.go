// Package placement implements v-Bundle's topology-aware VM placement
// (paper §II) and the baselines it is compared against.
//
// The DHT engine is the paper's algorithm: every VM of a customer is tagged
// with key = hash(customer); a boot query is routed through the Pastry
// overlay toward that key, so it lands on the server whose hierarchy-
// assigned nodeId is numerically closest — a fixed "home" location per
// customer. If that server cannot admit the VM, the query spills outward
// through the server's neighborhood and leaf sets (physically adjacent
// machines under hierarchy identifiers) until some server accepts. The
// result: one customer's chatting VMs pack into the same servers and racks,
// preserving bi-section bandwidth.
//
// The Greedy engine reproduces the paper's comparison baseline (Fig. 8b):
// first-fit over the server list, oblivious to who talks to whom. Random
// places on a uniformly random server with room.
package placement

import (
	"fmt"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// Engine places VMs onto servers. Place reports the chosen server through
// onDone, which may fire synchronously (greedy, random) or after routed
// messages settle (DHT).
type Engine interface {
	// Place finds a server for the VM and admits it there. onDone receives
	// the chosen server index, the number of overlay hops the query took
	// (zero for centralized engines) or an error when no server can admit
	// the VM.
	Place(vm *cluster.VM, onDone func(Result, error))
	// Name identifies the engine in experiment output.
	Name() string
}

// Resolver hears the answers of a batch query (DHT.PlaceBatch): Resolve is
// called once per VM of the batch, in batch order, when the query resolves.
// An interface rather than a func, so that a caller's per-query record can
// hear its own answers without a closure bound to it.
type Resolver interface {
	Resolve(i int, r Result, err error)
}

// Result describes a successful placement.
type Result struct {
	// Server is where the VM was admitted.
	Server int
	// Hops counts overlay routing plus spill forwarding steps (DHT only).
	Hops int
}

// --- greedy baseline ---------------------------------------------------------

// Greedy is the paper's baseline: scan servers in index order and take the
// first with room ("the first server it finds with enough resources").
type Greedy struct {
	cl *cluster.Cluster
}

// NewGreedy creates the greedy engine.
func NewGreedy(cl *cluster.Cluster) *Greedy { return &Greedy{cl: cl} }

// Name implements Engine.
func (g *Greedy) Name() string { return "greedy" }

// Place implements Engine.
func (g *Greedy) Place(vm *cluster.VM, onDone func(Result, error)) {
	for i := 0; i < g.cl.Size(); i++ {
		if g.cl.Server(i).CanAdmit(vm) {
			if err := g.cl.Place(vm, i); err != nil {
				onDone(Result{}, err)
				return
			}
			onDone(Result{Server: i}, nil)
			return
		}
	}
	onDone(Result{}, fmt.Errorf("placement: no server can admit vm %d", vm.ID))
}

var _ Engine = (*Greedy)(nil)

// --- random baseline ---------------------------------------------------------

// Random places each VM on a uniformly random server with room, the
// "simple method" the paper attributes to topology-unaware IaaS providers.
type Random struct {
	cl  *cluster.Cluster
	rng interface{ Intn(int) int }
}

// NewRandom creates the random engine using the given source (typically the
// simulation engine's).
func NewRandom(cl *cluster.Cluster, rng interface{ Intn(int) int }) *Random {
	return &Random{cl: cl, rng: rng}
}

// Name implements Engine.
func (r *Random) Name() string { return "random" }

// Place implements Engine.
func (r *Random) Place(vm *cluster.VM, onDone func(Result, error)) {
	n := r.cl.Size()
	start := r.rng.Intn(n)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if r.cl.Server(i).CanAdmit(vm) {
			if err := r.cl.Place(vm, i); err != nil {
				onDone(Result{}, err)
				return
			}
			onDone(Result{Server: i}, nil)
			return
		}
	}
	onDone(Result{}, fmt.Errorf("placement: no server can admit vm %d", vm.ID))
}

var _ Engine = (*Random)(nil)

// --- DHT engine (the paper's algorithm) ---------------------------------------

// AppName is the Pastry application name of the placement protocol.
const AppName = "vb-place"

// DHTConfig tunes the DHT engine.
type DHTConfig struct {
	// MaxSpillHops bounds the spill walk after the rendezvous server; a
	// query that exhausts it fails. Defaults to the cluster size.
	MaxSpillHops int
	// QueryTimeout bounds how long the gateway waits for an answer.
	// Defaults to 30 seconds of virtual time.
	QueryTimeout time.Duration
}

// gatewayServer is the server that originates boot queries: the cloud front
// end submits through it.
const gatewayServer = 0

func (c DHTConfig) withDefaults(clusterSize int) DHTConfig {
	if c.MaxSpillHops == 0 {
		// A spill walk may, in the worst case, have to traverse a whole
		// saturated customer region; bounding at the cluster size keeps
		// failure detection finite without rejecting feasible placements.
		c.MaxSpillHops = clusterSize
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	return c
}

// DHT is the topology-aware engine. One agent runs on every Pastry node;
// the engine's Place routes a boot query from the gateway toward
// hash(customer). PlaceBatch admits several VMs of one customer along a
// single walk, and an optional ResolutionCache lets repeat boots skip the
// overlay route entirely (one direct hop to the customer's rendezvous) and
// resume the customer's last walk where it stopped.
type DHT struct {
	ring   *pastry.Ring
	cl     *cluster.Cluster
	cfg    DHTConfig
	agents []*dhtAgent
	cache  *ResolutionCache // nil = no fast path

	seq uint64
	// envelopes banks the boot envelopes' headers, carved from its slab;
	// backings lends their variable-size parts. Both are read and written
	// where tq is — Place and PlaceBatch take an envelope, finish banks it
	// at the gateway — and so need no more synchronisation than the queue
	// has; a walk that outgrows a backing away from the gateway makes its
	// own. A banked envelope keeps its backings, and so the room of the
	// longest walk it carried. outgrown lists, once each, the banked
	// envelopes that hold a backing the pools would not keep (over 1 KB):
	// the answer that leaves nothing in flight takes those backings from
	// them (releaseQuery), so that a gateway does not carry its busiest
	// moment's walks for good. carved counts the headers ever made.
	envelopes sim.Bank[bootQuery]
	backings  queryBackings
	outgrown  []*bootQuery
	carved    int

	// tq holds the launched queries' gateway records in launch order, and
	// they share one timer. QueryTimeout is constant, so deadlines are FIFO:
	// the timer is armed at the oldest unanswered query's deadline, and an
	// answer that settles the oldest moves the queue's head past every
	// answered record behind it. The boot hot path neither hashes nor
	// schedules anything per query for its timeout.
	tq         timeoutQueue
	timerArmed bool
	timerFn    func()

	// stats
	placed     int
	totalHops  int
	maxHops    int
	spillFails int
	timeouts   int
	hopHist    []int // hopHist[h] = placements whose query took h hops
	// walk is WalkStats as counters, on the trace registry when tracing is on.
	walk struct{ hopsRoute, hopsStop, hopsWalk, hopsWasted, resumed, fallbacks obs.Counter }
}

// WalkStats says where the answered queries' forward messages went. Every
// message that carries a query toward a server is exactly one of HopsRoute,
// HopsStop and HopsWalk; the answer leg is not counted.
type WalkStats struct {
	// HopsRoute are overlay routing hops toward hash(customer).
	HopsRoute int64
	// HopsStop are direct hops to a resumed walk's explicit stops: the
	// servers freed since the remembered walk, then its frontier.
	HopsStop int64
	// HopsWalk are the rest: the direct hop to a cached rendezvous and the
	// spill walk's server-to-server steps.
	HopsWalk int64
	// HopsWasted are visits, however reached, to a server that admitted
	// nothing.
	HopsWasted int64
	// Resumed counts queries launched from a walk memo, Fallbacks those of
	// them that dead-ended and walked again from the rendezvous.
	Resumed, Fallbacks int64
}

// tqChunk is how many records one chunk of a timeoutQueue holds: 28 KB.
const tqChunk = 512

// timeoutQueue is the gateway's record of every launched query, a FIFO in
// fixed-size chunks from the oldest unanswered query to the newest. Every
// launch pushes its record, in sequence order, so a record's query is the
// head's plus the record's distance from the head, and a lookup is index
// arithmetic. Chunks are allocated once and handed back as the head passes
// them; one drained chunk is kept for the next push that needs one.
type timeoutQueue struct {
	chunks [][]pendingQuery // all but the last are full
	head   int              // the oldest record, in chunks[0]
	seq    uint64           // the query of that record
	spare  []pendingQuery
	// pending counts the unanswered records.
	pending int
}

// pendingQuery is the gateway-side record of a launched query. Exactly one
// of single/batch is set until the query is answered or times out.
type pendingQuery struct {
	at       time.Duration // the deadline
	single   func(Result, error)
	batch    Resolver
	customer string
	n        int32
	direct   bool // served via the cache fast path (evict on timeout)
	answered bool
}

func (pq *pendingQuery) deliver(i int, r Result, err error) {
	if pq.batch != nil {
		pq.batch.Resolve(i, r, err)
		return
	}
	pq.single(r, err)
}

// push queues the record of query seq, which must follow the last one queued.
func (q *timeoutQueue) push(seq uint64, pq pendingQuery) {
	last := len(q.chunks) - 1
	if last < 0 {
		q.seq = seq
	}
	if last < 0 || len(q.chunks[last]) == tqChunk {
		c := q.spare[:0]
		q.spare = nil
		if cap(c) == 0 {
			c = make([]pendingQuery, 0, tqChunk)
		}
		q.chunks = append(q.chunks, c)
		last++
	}
	q.chunks[last] = append(q.chunks[last], pq)
	q.pending++
}

// oldest returns the head record, nil on an empty queue.
func (q *timeoutQueue) oldest() *pendingQuery {
	if len(q.chunks) == 0 {
		return nil
	}
	return &q.chunks[0][q.head]
}

// find returns query seq's record while it is unanswered, nil once it was
// answered or timed out.
func (q *timeoutQueue) find(seq uint64) *pendingQuery {
	if len(q.chunks) == 0 || seq < q.seq {
		return nil
	}
	i := q.head + int(seq-q.seq)
	ci, off := i/tqChunk, i%tqChunk
	if ci >= len(q.chunks) || off >= len(q.chunks[ci]) || q.chunks[ci][off].answered {
		return nil
	}
	return &q.chunks[ci][off]
}

// settle takes an unanswered record out of the queue and returns it: the
// record is marked answered, and the head moves past every answered record,
// handing back the chunks it drains.
func (q *timeoutQueue) settle(pq *pendingQuery) pendingQuery {
	out := *pq
	*pq = pendingQuery{answered: true}
	q.pending--
	for len(q.chunks) > 0 && q.chunks[0][q.head].answered {
		q.chunks[0][q.head] = pendingQuery{}
		q.head++
		q.seq++
		if q.head == len(q.chunks[0]) { // full and read through, or the last one and the queue is empty
			q.spare = q.chunks[0]
			// Shift rather than reslice, so that the list keeps its backing
			// through a queue that drains at every idle gap.
			n := copy(q.chunks, q.chunks[1:])
			q.chunks[n] = nil
			q.chunks = q.chunks[:n]
			q.head = 0
		}
	}
	return out
}

// NewDHT builds the engine and registers its agent on every ring node.
func NewDHT(ring *pastry.Ring, cl *cluster.Cluster, cfg DHTConfig) *DHT {
	if ring.Size() != cl.Size() {
		panic(fmt.Sprintf("placement: ring has %d nodes but cluster %d servers", ring.Size(), cl.Size()))
	}
	d := &DHT{
		ring:   ring,
		cl:     cl,
		cfg:    cfg.withDefaults(cl.Size()),
		agents: make([]*dhtAgent, ring.Size()),
	}
	d.timerFn = d.onTimer
	// One slice for all the agents, as NewRing carves its nodes; a rebound
	// node's agent (RebindNode) is an object of its own.
	agents := make([]dhtAgent, ring.Size())
	for i, node := range ring.Nodes() {
		a := &agents[i]
		*a = dhtAgent{d: d, server: i, node: node}
		d.agents[i] = a
		node.Register(AppName, a)
	}
	if reg := ring.Network().Trace().Registry(); reg != nil {
		reg.Register("placement/hops_route", &d.walk.hopsRoute)
		reg.Register("placement/hops_stop", &d.walk.hopsStop)
		reg.Register("placement/hops_walk", &d.walk.hopsWalk)
		reg.Register("placement/hops_wasted", &d.walk.hopsWasted)
		reg.Register("placement/resumed", &d.walk.resumed)
		reg.Register("placement/fallbacks", &d.walk.fallbacks)
	}
	return d
}

// Name implements Engine.
func (d *DHT) Name() string { return "vbundle-dht" }

// Gateway returns the node that originates boot queries.
func (d *DHT) Gateway() *pastry.Node { return d.ring.Node(gatewayServer) }

// RebindNode re-registers the DHT agent on a rebuilt ring node after a
// crash-restart. The agent itself is stateless (gateway-side query state
// lives on the gateway), so a fresh one is enough.
func (d *DHT) RebindNode(i int) {
	node := d.ring.Node(i)
	a := &dhtAgent{d: d, server: i, node: node}
	d.agents[i] = a
	node.Register(AppName, a)
}

// SetCache attaches the gateway's per-customer soft state. Subsequent boots
// for a cached customer skip the overlay route and go in one hop to the
// recorded rendezvous, or, once a walk of the customer's has finished, to
// where that walk stopped (see ResolutionCache for what each may change).
// Nil detaches.
func (d *DHT) SetCache(c *ResolutionCache) { d.cache = c }

// Place implements Engine: route a boot query toward hash(customer).
func (d *DHT) Place(vm *cluster.VM, onDone func(Result, error)) {
	q := d.acquireQuery(1)
	q.Customer, q.Key = vm.Customer, vm.Key
	q.VMs = append(q.VMs, vm.ID)
	q.Servers = append(q.Servers, vmUnplaced)
	q.HopsAt = append(q.HopsAt, 0)
	d.launch(q, pendingQuery{single: onDone})
}

// PlaceBatch admits a batch of registered VMs — all belonging to one
// customer — along a single query walk: the walk admits as many VMs as each
// visited server can take and keeps spilling while any remain. onDone hears
// each VM's answer, in batch order, when the query resolves. Panics on an
// empty batch, an unknown VM or mixed customers (a programming error:
// batches coalesce one customer's boots).
func (d *DHT) PlaceBatch(vms []cluster.VMID, onDone Resolver) {
	if len(vms) == 0 {
		panic("placement: empty batch")
	}
	q := d.acquireQuery(len(vms))
	for _, id := range vms {
		vm := d.cl.VM(id)
		switch {
		case vm == nil:
			panic(fmt.Sprintf("placement: vm %d is not registered", id))
		case len(q.VMs) == 0:
			q.Customer, q.Key = vm.Customer, vm.Key
		case vm.Customer != q.Customer:
			panic("placement: batch mixes customers")
		}
		q.VMs = append(q.VMs, id)
		q.Servers = append(q.Servers, vmUnplaced)
		q.HopsAt = append(q.HopsAt, 0)
	}
	d.launch(q, pendingQuery{batch: onDone})
}

// launch sends a loaded envelope on its way, Customer and Key set.
func (d *DHT) launch(q *bootQuery, pq pendingQuery) {
	d.seq++
	q.Seq = d.seq
	pq.customer = q.Customer
	pq.n = int32(len(q.VMs))
	gateway := d.Gateway()
	q.Origin = gateway.Handle()
	if d.cache != nil {
		if e := d.cache.lookup(q.Customer); e != nil {
			// Fast path: skip the overlay route, one direct hop to the
			// remembered rendezvous. Routed = false keeps a direct walk
			// from re-populating the cache (a stale entry must only be
			// refreshed by a full route).
			pq.direct = true
			d.armTimeout(q.Seq, pq)
			q.Home = e.home
			first := e.home
			if m := &e.memo; m.visited.Len() > 0 {
				// Resume the customer's last walk: start from what it had
				// visited, stop where capacity was freed since, then at its
				// frontier, and walk on from there. The visited list is
				// copied, not taken — a busy customer has several queries in
				// flight and each must resume — the freed list is taken, so
				// one query goes back for each hole.
				q.Resumed = true
				q.Visited.copyFrom(&m.visited, &d.backings.keys)
				q.Stops = regrow(&d.backings.addrs, q.Stops, len(m.freed)+1)
				q.Stops = append(append(q.Stops, m.freed...), m.frontier)
				m.freed = m.freed[:0]
				first = gateway.HandleOf(int32(q.Stops[0]))
			}
			if first.Addr == gateway.Addr() {
				// The gateway is the first server asked: admit
				// synchronously, the same short-circuit replies use.
				q.Spill++
				d.agents[gatewayServer].tryAdmit(q)
				return
			}
			gateway.SendDirect(first, AppName, q)
			return
		}
	}
	q.Routed = true
	d.armTimeout(q.Seq, pq)
	gateway.Route(q.Key, AppName, q)
}

// armTimeout queues the record of query seq with its deadline, and arms the
// timer when it is idle.
func (d *DHT) armTimeout(seq uint64, pq pendingQuery) {
	eng := d.Gateway().Engine()
	pq.at = eng.Now() + d.cfg.QueryTimeout
	d.tq.push(seq, pq)
	if !d.timerArmed {
		d.timerArmed = true
		eng.After(d.cfg.QueryTimeout, d.timerFn)
	}
}

// onTimer times out every unanswered query whose deadline has come, oldest
// first, and re-arms at the oldest left: answered queries have left the
// queue already, so the timer fires about once a QueryTimeout on a stream
// whose queries answer.
func (d *DHT) onTimer() {
	d.timerArmed = true // a boot a timeout's callback launches arms no second timer
	eng := d.Gateway().Engine()
	now := eng.Now()
	for {
		head := d.tq.oldest()
		if head == nil || head.at > now {
			break
		}
		seq := d.tq.seq
		pq := d.tq.settle(head)
		d.timeouts++
		if pq.direct && d.cache != nil {
			// The rendezvous we trusted never answered — it may be dead.
			// Drop the entry so the next boot takes the full route.
			d.cache.Invalidate(pq.customer)
		}
		err := fmt.Errorf("placement: query %d for customer %s timed out", seq, pq.customer)
		for i := 0; i < int(pq.n); i++ {
			pq.deliver(i, Result{}, err)
		}
	}
	next := d.tq.oldest()
	if next == nil {
		d.timerArmed = false
		return
	}
	eng.After(next.at-now, d.timerFn)
}

// Stats reports placements completed, mean and max query hops, and spill
// exhaustion failures.
func (d *DHT) Stats() (placed int, meanHops float64, maxHops, failures int) {
	mean := 0.0
	if d.placed > 0 {
		mean = float64(d.totalHops) / float64(d.placed)
	}
	return d.placed, mean, d.maxHops, d.spillFails
}

// Timeouts reports queries that expired unanswered.
func (d *DHT) Timeouts() int { return d.timeouts }

// Walk reports what the answered queries' hops were spent on.
func (d *DHT) Walk() WalkStats {
	w := &d.walk
	return WalkStats{
		HopsRoute:  w.hopsRoute.Value(),
		HopsStop:   w.hopsStop.Value(),
		HopsWalk:   w.hopsWalk.Value(),
		HopsWasted: w.hopsWasted.Value(),
		Resumed:    w.resumed.Value(),
		Fallbacks:  w.fallbacks.Value(),
	}
}

// HopQuantile returns the q-quantile (0 < q ≤ 1, nearest-rank) of the
// per-placement hop distribution, or 0 when nothing has been placed.
func (d *DHT) HopQuantile(q float64) int {
	if d.placed == 0 {
		return 0
	}
	rank := int(q*float64(d.placed) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > d.placed {
		rank = d.placed
	}
	cum := 0
	for h, n := range d.hopHist {
		cum += n
		if cum >= rank {
			return h
		}
	}
	return d.maxHops
}

func (d *DHT) recordHops(h int) {
	for h >= len(d.hopHist) {
		d.hopHist = append(d.hopHist, 0)
	}
	d.hopHist[h]++
}

// finish resolves a returned query at the gateway: record stats, refresh the
// cache, fire callbacks, recycle the envelope.
func (d *DHT) finish(q *bootQuery) {
	rec := d.tq.find(q.Seq)
	if rec == nil {
		d.releaseQuery(q) // timed out before the answer arrived
		return
	}
	pq := d.tq.settle(rec)
	placedVMs := 0
	for _, s := range q.Servers {
		if s >= 0 {
			placedVMs++
		}
	}
	if d.cache != nil {
		if q.Routed && placedVMs > 0 {
			d.cache.Store(q.Customer, q.Home)
		}
		d.cache.remember(q, placedVMs == len(q.VMs))
	}
	hops := q.Detour + q.Spill
	d.walk.hopsRoute.Add(int64(q.RouteHops))
	d.walk.hopsStop.Add(int64(q.stop))
	d.walk.hopsWalk.Add(int64(hops - q.RouteHops - q.stop))
	d.walk.hopsWasted.Add(int64(q.Wasted))
	if len(q.Stops) > 0 {
		d.walk.resumed.Inc()
		if !q.Resumed {
			d.walk.fallbacks.Inc()
		}
	}
	for i := range q.VMs {
		if s := q.Servers[i]; s >= 0 {
			hops := int(q.HopsAt[i])
			d.placed++
			d.totalHops += hops
			if hops > d.maxHops {
				d.maxHops = hops
			}
			d.recordHops(hops)
			pq.deliver(i, Result{Server: int(s), Hops: hops}, nil)
		} else {
			d.spillFails++
			pq.deliver(i, Result{}, fmt.Errorf("placement: spill walk exhausted for vm %d", q.VMs[i]))
		}
	}
	d.releaseQuery(q)
}

// bootQuery carries a batch of one customer's VM boot requests toward the
// customer key and then along the spill walk; with Done set, the same
// envelope carries the per-VM answers back to the origin. The VM IDs are an
// in-process simulation shortcut for the attribute bundles a real query
// would serialize: each visit looks the VMs up again, since the gateway may
// time the query out and destroy them while it walks. Envelopes are recycled: the final replier hands the
// envelope back to the gateway, which banks it after the callbacks run. The
// struct is the envelope's fixed-size header, carved from DHT.envelopes; its
// slices and visited set take power-of-two backings from DHT.backings.
type bootQuery struct {
	Seq      uint64
	Customer string
	Key      ids.Id
	VMs      []cluster.VMID
	// Servers[i] is the server that admitted VMs[i], vmUnplaced while it is
	// carried, vmGone once the cluster no longer knows it.
	Servers []int32
	// HopsAt[i] is the query's hop count when VMs[i] was admitted.
	HopsAt  []int32
	Origin  pastry.NodeHandle
	Home    pastry.NodeHandle // rendezvous where the route delivered
	Routed  bool              // took the full overlay route (may refresh the cache)
	Done    bool              // answer leg: heading back to Origin
	Spill   int               // hops taken, counted against MaxSpillHops
	Visited visitedSet        // servers the walk has been to: 16-byte nodeIds on the wire, addresses here

	// A resumed walk (launch) starts with Visited seeded from the customer's
	// walk memo and is sent to Stops in turn — 20 bytes each on the wire
	// while still ahead — before it walks on from the last of them.
	Stops   []simnet.Addr
	stop    int  // stops arrived at
	Resumed bool // still trusting the memo; cleared by fallBack
	Detour  int  // hops a resumed walk had spent when it fell back

	RouteHops int // of the hops, those the overlay route took
	Wasted    int // visits that admitted nothing

	banked   bool // lies in DHT.envelopes
	outgrown bool // listed in DHT.outgrown
}

// queryBackings lends boot envelopes the backings of their variable-size
// parts, one pool an element type.
type queryBackings struct {
	vms   sim.Pool[cluster.VMID]
	ints  sim.Pool[int32]       // Servers and HopsAt
	addrs sim.Pool[simnet.Addr] // Stops
	keys  sim.Pool[uint32]      // the visited list and its table
}

// outgrows reports whether q holds a backing the pools would not keep.
func (b *queryBackings) outgrows(q *bootQuery) bool {
	return !b.vms.Keeps(cap(q.VMs)) || !b.ints.Keeps(cap(q.Servers)) || !b.ints.Keeps(cap(q.HopsAt)) ||
		!b.addrs.Keeps(cap(q.Stops)) || !b.keys.Keeps(cap(q.Visited.list)) || !b.keys.Keeps(cap(q.Visited.slots))
}

// regrow returns b emptied when it has room for n, or else an empty backing
// with that room: from pool, or made to length n when the pool would not
// keep it or there is no pool (the walk memo's). A b the pool keeps goes
// back to it.
func regrow[T any](pool *sim.Pool[T], b []T, n int) []T {
	switch {
	case cap(b) >= n:
		return b[:0]
	case pool == nil:
		return make([]T, 0, n)
	case cap(b) > 0 && pool.Keeps(cap(b)):
		pool.Put(b)
	}
	if !pool.Keeps(n) {
		return make([]T, 0, n)
	}
	return pool.Get(n)
}

// kept returns b when pool would keep it, nil when it is one to let go.
func kept[T any](pool *sim.Pool[T], b []T) []T {
	if pool.Keeps(cap(b)) {
		return b
	}
	return nil
}

// Values of bootQuery.Servers for a VM no server has admitted.
const (
	vmUnplaced = -1
	vmGone     = -2
)

// WireSize implements simnet.WireSizer: a realistic boot request carries the
// per-VM attribute tuples, origin and the visited list; the answer carries a
// (server, hops) pair per VM.
func (q *bootQuery) WireSize() int {
	if q.Done {
		return 24 + 8*len(q.VMs)
	}
	return 64 + 20 + 24*len(q.VMs) + 16*q.Visited.Len() + 20*(len(q.Stops)-q.stop)
}

// acquireQuery takes a banked boot envelope, or carves one, with room for n
// VMs. A taker writes every field it reads: the header is set here, and the
// backings a banked envelope keeps — emptied, its visited table cleared,
// when it was banked — are regrown from the pools only when they are too
// small, so a warm gateway's boots allocate nothing. An envelope whose
// answer is lost is never banked; the collector takes it.
func (d *DHT) acquireQuery(n int) *bootQuery {
	q := d.envelopes.Take()
	if !q.banked {
		d.carved++
	}
	b := &d.backings
	*q = bootQuery{
		VMs:      regrow(&b.vms, q.VMs, n),
		Servers:  regrow(&b.ints, q.Servers, n),
		HopsAt:   regrow(&b.ints, q.HopsAt, n),
		Visited:  q.Visited,
		Stops:    q.Stops[:0],
		outgrown: q.outgrown,
	}
	q.Visited.ready(&b.keys)
	return q
}

// releaseQuery banks an answered envelope with its backings. The answer that
// leaves nothing in flight ends a burst: the other banked envelopes listed
// as outgrown then give up their backings over 1 KB (an envelope keeps the
// room of the longest walk it carried, 7 KB on average where regions are
// full) and keep their headers and the rest for the next burst. The
// answering envelope keeps all of its room, for a gateway whose boots
// arrive one at a time; it is listed, and gives its outgrown backings up at
// the next idle answer but its own.
func (d *DHT) releaseQuery(q *bootQuery) {
	clear(q.VMs)
	q.Visited.reset()
	if d.tq.pending == 0 {
		b := &d.backings
		for i, o := range d.outgrown {
			if o.banked { // not q, nor a lost or late envelope still walking
				o.VMs, o.Servers, o.HopsAt = kept(&b.vms, o.VMs), kept(&b.ints, o.Servers), kept(&b.ints, o.HopsAt)
				o.Stops = kept(&b.addrs, o.Stops)
				o.Visited.list, o.Visited.slots = kept(&b.keys, o.Visited.list), kept(&b.keys, o.Visited.slots)
			}
			o.outgrown = false
			d.outgrown[i] = nil
		}
		d.outgrown = d.outgrown[:0]
	}
	q.banked = true
	if !q.outgrown && d.backings.outgrows(q) {
		q.outgrown = true
		d.outgrown = append(d.outgrown, q)
	}
	d.envelopes.Put(q)
}

// dhtAgent is the per-server protocol handler.
type dhtAgent struct {
	pastry.BaseApp
	d      *DHT
	server int
	node   *pastry.Node
}

// Deliver implements pastry.App: the query reached the customer's
// rendezvous server; try to admit locally or start the spill walk.
func (a *dhtAgent) Deliver(_ ids.Id, payload simnet.Message, info pastry.RouteInfo) {
	q, ok := payload.(*bootQuery)
	if !ok {
		return
	}
	q.Home = a.node.Handle()
	q.Spill += info.Hops
	q.RouteHops = info.Hops
	a.tryAdmit(q)
}

// HandleDirect implements pastry.App: spill-walk forwarding and answers.
func (a *dhtAgent) HandleDirect(_ pastry.NodeHandle, payload simnet.Message) {
	m, ok := payload.(*bootQuery)
	if !ok {
		return
	}
	if m.Done {
		a.d.finish(m)
		return
	}
	m.Spill++
	a.tryAdmit(m)
}

// tryAdmit is one visit of the walk: admit what fits here, answer when
// nothing is left to place, otherwise send the query on.
func (a *dhtAgent) tryAdmit(q *bootQuery) {
	if q.stop < len(q.Stops) {
		// A stop of a resumed walk. The memo nearly always holds it already;
		// a server freed after a newer walk replaced the memo may be new.
		q.stop++
		if !q.Visited.Has(a.node.Addr()) {
			q.Visited.Add(a.node.Addr())
		}
	} else {
		q.Visited.Add(a.node.Addr())
	}
	srv := a.d.cl.Server(a.server)
	// One Reserved() sum serves the whole batch; it changes only when this
	// loop admits a VM.
	reserved := srv.Reserved()
	unplaced, admitted := 0, false
	for i, id := range q.VMs {
		if q.Servers[i] != vmUnplaced {
			continue
		}
		vm := a.d.cl.VM(id)
		if vm == nil {
			// The gateway timed the query out and destroyed its VMs: no
			// server will ever take this one, so stop carrying it.
			q.Servers[i] = vmGone
			continue
		}
		if srv.CanAdmitOnTop(reserved, vm) {
			if err := a.d.cl.Place(vm, a.server); err == nil {
				q.Servers[i] = int32(a.server)
				q.HopsAt[i] = int32(q.Detour + q.Spill)
				reserved = srv.Reserved()
				admitted = true
				continue
			}
		}
		unplaced++
	}
	if !admitted {
		q.Wasted++
	}
	if unplaced == 0 {
		a.reply(q)
		return
	}
	if q.stop < len(q.Stops) {
		a.node.SendDirect(a.node.HandleOf(int32(q.Stops[q.stop])), AppName, q)
		return
	}
	next := pastry.NoHandle
	if q.Spill < a.d.cfg.MaxSpillHops {
		next = a.nextSpillTarget(q)
	}
	switch {
	case !next.IsNil():
		a.node.SendDirect(next, AppName, q)
	case q.Resumed:
		a.fallBack(q)
	default:
		a.reply(q)
	}
}

// fallBack is what keeps a walk memo from ever costing a placement: a resumed
// walk that has nowhere left to go — every neighbour of the server it stands
// on is in the visited list it was given, or its hop budget is spent — forgets
// the memo and walks classically from the rendezvous with a full budget, so
// the VMs it still carries fail only where the classic walk fails them.
func (a *dhtAgent) fallBack(q *bootQuery) {
	q.Resumed = false
	q.Visited.reset()
	q.Detour, q.Spill = q.Spill, 0
	if q.Home.Addr == a.node.Addr() {
		a.tryAdmit(q)
		return
	}
	a.node.SendDirect(q.Home, AppName, q)
}

// nextSpillTarget picks the closest unvisited server among the node's
// neighborhood and leaf sets: under hierarchy identifiers these are the
// physically adjacent machines, so the walk grows the customer's footprint
// outward from its home rack. One hop costs O(|M| + |L|) — a latency lookup
// and a visited-set probe per candidate address, an identifier lookup only
// to break a latency tie — and allocates nothing.
func (a *dhtAgent) nextSpillTarget(q *bootQuery) pastry.NodeHandle {
	best := int32(-1)
	var bestLat time.Duration
	self := a.node.Addr()
	neighborhood, ccw, cw := a.node.AdjacentSets()
	for _, set := range [...][]int32{neighborhood, ccw, cw} {
		for _, ref := range set {
			addr := simnet.Addr(ref)
			if q.Visited.Has(addr) {
				continue
			}
			lat := a.node.LatencyBetween(self, addr)
			switch {
			case best < 0, lat < bestLat:
				best, bestLat = ref, lat
			case lat == bestLat && ids.CloserTo(q.Key, a.node.HandleOf(ref).Id, a.node.HandleOf(best).Id):
				best = ref
			}
		}
	}
	if best < 0 {
		return pastry.NoHandle
	}
	return a.node.HandleOf(best)
}

// reply sends the query envelope back to the origin as the answer.
func (a *dhtAgent) reply(q *bootQuery) {
	q.Done = true
	if q.Origin.Addr == a.node.Addr() {
		a.d.finish(q)
		return
	}
	a.node.SendDirect(q.Origin, AppName, q)
}

var _ Engine = (*DHT)(nil)
var _ pastry.App = (*dhtAgent)(nil)
