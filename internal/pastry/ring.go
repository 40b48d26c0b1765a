package pastry

import (
	"math"
	"sort"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// IdAssigner maps a server index to its ring identifier.
type IdAssigner func(index, total int) ids.Id

// HierarchyAssigner is v-Bundle's certificate-authority assignment (paper
// §II.B): identifiers are spaced evenly around the ring in server-enumeration
// order, so ring adjacency mirrors physical adjacency.
func HierarchyAssigner(index, total int) ids.Id { return ids.Scaled(index, total) }

// Ring bundles a full overlay: one Pastry node per server of a topology,
// connected through a simulated network whose latencies follow that
// topology.
//
// Within a ring a node's identifier is a function of its address: the
// assigner fixes it when the ring is built (the paper's certificate
// authority, §II.B) and RebuildNode gives the replacement the identifier of
// the node it replaces. That is what lets every node's tables hold bare
// addresses (int32 refs) and read identifiers back from one shared
// directory; a handle that disagrees with the directory is not of this ring
// (inDirectory).
type Ring struct {
	cfg    Config
	engine *sim.Engine
	net    *simnet.Network
	topo   *topology.Topology
	nodes  []*Node
	// dir is the identifier directory, indexed by address: dir[a] is the
	// identifier of the node at address a. The ring owns it, every node
	// shares it, and nothing writes it after NewRing.
	dir []ids.Id
	// lat is the topology's latency as the nodes' proximity metric; floor is
	// the smallest latency it gives two distinct servers.
	lat   simnet.LatencyFunc
	floor time.Duration

	// byID holds node indices sorted by identifier; pos is its inverse
	// (pos[i] is the rank of node i) and sortedIDs the identifiers in rank
	// order. Together they back the static builder and the indexed
	// ground-truth queries (ClosestLive).
	byID      []int
	pos       []int
	sortedIDs []ids.Id
}

// NewRing creates the network and one node per server, with blank tables:
// BuildStatic fills them from global knowledge, the state a converged join
// protocol reaches (running 3 000 individual joins is not the phenomenon
// under study). A crashed node comes back through RebuildNode and Rejoin.
func NewRing(engine *sim.Engine, topo *topology.Topology, cfg Config, assign IdAssigner, opts ...simnet.Option) *Ring {
	if assign == nil {
		assign = HierarchyAssigner
	}
	n := topo.Servers()
	lat := func(a, b simnet.Addr) time.Duration { return topo.Latency(int(a), int(b)) }
	// Any two distinct servers are at least one LAN hop apart (the sub-hop
	// LocalDelivery tier is same-server only).
	floor := topo.Spec().LANHop
	if engine.ShardCount() > 1 {
		// A server is never split across shards, so the floor bounds every
		// cross-shard interaction and is the engine's parallel window width.
		engine.SetLookahead(floor)
	}
	net := simnet.New(engine, n, lat, opts...)
	r := &Ring{
		cfg:    cfg.withDefaults(),
		engine: engine,
		net:    net,
		topo:   topo,
		nodes:  make([]*Node, n),
		byID:   make([]int, n),
		lat:    lat,
		floor:  floor,
	}
	r.dir = make([]ids.Id, n)
	for i := range r.dir {
		r.dir[i] = assign(i, n)
		r.byID[i] = i
	}
	sort.Slice(r.byID, func(a, b int) bool {
		return r.dir[r.byID[a]].Less(r.dir[r.byID[b]])
	})
	r.pos = make([]int, n)
	r.sortedIDs = make([]ids.Id, n)
	for p, i := range r.byID {
		r.pos[i] = p
		r.sortedIDs[p] = r.dir[i]
	}
	// One flat arena backs every node's leaf halves, neighborhood set and
	// routing-table rows, and one slice holds the nodes themselves: two
	// allocations instead of ~6n small objects, which dominates both build
	// time and steady-state GC cost at 100k+ servers.
	half := r.cfg.LeafSize / 2
	rows := expectedRows(r.sortedIDs, r.cfg)
	perNode := 2*(half+1) + (r.cfg.NeighborhoodSize + 1) + rows*r.cfg.cols()
	arena := newRefArena(n * perNode)
	nodes := make([]Node, n)
	for i := range nodes {
		r.nodes[i] = &nodes[i]
		r.nodes[i].init(r, simnet.Addr(i), arena, rows)
	}
	return r
}

// Network returns the underlying transport.
func (r *Ring) Network() *simnet.Network { return r.net }

// Topology returns the physical topology the ring is built over.
func (r *Ring) Topology() *topology.Topology { return r.topo }

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// Node returns the node running on server i.
func (r *Ring) Node(i int) *Node { return r.nodes[i] }

// Nodes returns all nodes indexed by server. The slice is shared; do not
// mutate it.
func (r *Ring) Nodes() []*Node { return r.nodes }

// ClosestLive returns the live node whose identifier is numerically closest
// to key: the ground truth a correct overlay routes to. Tests compare
// routed destinations against it.
//
// The closest live node is always the nearest live neighbor of key in ring
// order on one side or the other (any third live node is circularly farther
// on its side, hence strictly more distant), so the query is a binary search
// for key's rank plus a walk through the ranks each way, asking the network,
// to the first live node — O(log n) while most nodes are alive, against the
// O(n) scan the index equivalence test replays against.
func (r *Ring) ClosestLive(key ids.Id) *Node {
	n := len(r.nodes)
	at := sort.Search(n, func(k int) bool { return !r.sortedIDs[k].Less(key) })
	cw := r.firstLive(at, 1)
	if cw < 0 {
		return nil // no live nodes at all
	}
	a := r.nodes[r.byID[cw]]
	b := r.nodes[r.byID[r.firstLive(at-1, -1)]]
	if a == b || ids.CloserTo(key, a.ID(), b.ID()) {
		return a
	}
	return b
}

// firstLive returns the first rank, from start (taken modulo the ring)
// stepping by step (+1 clockwise, -1 counter-clockwise), whose node the
// network reports alive, or -1 when none is.
func (r *Ring) firstLive(start, step int) int {
	n := len(r.byID)
	for k := 0; k < n; k++ {
		p := ((start+k*step)%n + n) % n
		if r.net.Alive(simnet.Addr(r.byID[p])) {
			return p
		}
	}
	return -1
}

// RebuildNode replaces server i's crashed node with a brand-new one
// carrying the same identifier and address: blank tables, blank app
// registry, fresh recycler pools. The constructor's Attach brings the
// address back online; the caller re-registers applications and drives
// Rejoin. The identifier is unchanged, so the identifier-order index
// (byID/pos/sortedIDs) stays valid. The old node's maintenance ticker is
// stopped — it belongs to a corpse.
func (r *Ring) RebuildNode(i int) *Node {
	old := r.nodes[i]
	old.StopMaintenance()
	node := new(Node)
	node.init(r, old.Addr(), nil, 0)
	r.nodes[i] = node
	return node
}

// StartMaintenance turns on periodic maintenance on every node.
func (r *Ring) StartMaintenance() {
	for _, n := range r.nodes {
		n.StartMaintenance()
	}
}

// StopMaintenance halts maintenance on every node.
func (r *Ring) StopMaintenance() {
	for _, n := range r.nodes {
		n.StopMaintenance()
	}
}

// BuildStatic populates every node's leaf set, routing table and
// neighborhood set directly from global knowledge: the state a converged
// join protocol reaches, and the one way the ring is built. It fills the
// blank tables of a ring NewRing has just made.
func (r *Ring) BuildStatic() {
	n := len(r.nodes)
	if n == 0 {
		return
	}
	half := r.cfg.LeafSize / 2
	// The neighborhood fill's two buffers, reused across nodes.
	cands := make([]nbCandidate, 0, 2*r.cfg.NeighborhoodSize+2)
	sorted := make([]nbCandidate, 0, 2*r.cfg.NeighborhoodSize+2)

	for i, node := range r.nodes {
		p := r.pos[i]
		// Leaf sets: the ring neighbors in identifier order are, by
		// construction, already sorted by clockwise (respectively counter-
		// clockwise) distance, so both halves are written directly instead of
		// going through insertSortedByDist for each of the 2·half candidates.
		m := half
		if m > n-1 {
			m = n - 1
		}
		node.leafCW = node.leafCW[:0]
		node.leafCCW = node.leafCCW[:0]
		for k := 1; k <= m; k++ {
			node.leafCW = append(node.leafCW, int32(r.byID[(p+k)%n]))
			node.leafCCW = append(node.leafCCW, int32(r.byID[(p-k+n)%n]))
		}
		// Neighborhood set: physically closest servers.
		cands, sorted = r.fillNeighborhood(node, cands, sorted)
		node.lastConsidered = noRef
	}
	// Routing tables: one recursive prefix partition of the identifier
	// space fills every node's table, instead of per-(node,row,col) binary
	// searches over the whole ring.
	r.fillRoutingTables()
}

// fillRoutingTables populates every node's routing table in one recursive
// walk of the identifier-sorted ranks. All nodes sharing an l-digit prefix
// form one contiguous rank range, and row l's column boundaries depend only
// on that prefix — so the boundaries are computed once per prefix group (16
// binary searches within the group). For a member of rank p and a column
// range [cs, ce) that is not its own, the rank-closest candidate is cs if p
// < cs and ce-1 otherwise (p is never inside a sibling range): the high end
// of every range below the member's own, the low end of every range above
// it. That row is therefore the same for every member of one range, so it is
// built once per range and copied into each member, which grows its table
// once. A group whose members all share digit l as well writes no row l at
// all; recursion only descends into sub-ranges with at least two members,
// which is exactly "stop once the prefix range around the own identifier
// contains only us".
func (r *Ring) fillRoutingTables() {
	n := len(r.sortedIDs)
	cols, rows := r.cfg.cols(), r.cfg.rows()
	// Per-row boundary scratch: a group at row l only uses scratch[l], and
	// groups at the same row are processed strictly sequentially.
	scratch := make([][]int, rows)
	shared := make([]int32, cols)
	var fill func(row, gs, ge int)
	fill = func(row, gs, ge int) {
		if ge-gs <= 1 || row >= rows {
			return
		}
		if scratch[row] == nil {
			scratch[row] = make([]int, cols+1)
		}
		bounds := scratch[row]
		// bounds[d] is the first rank in [gs, ge) whose digit at position
		// row is >= d; digits are non-decreasing across the sorted range.
		bounds[0] = gs
		for d := 1; d < cols; d++ {
			lo := bounds[d-1]
			bounds[d] = lo + sort.Search(ge-lo, func(k int) bool {
				return r.sortedIDs[lo+k].DigitAt(row, r.cfg.B) >= d
			})
		}
		bounds[cols] = ge
		for d := 0; d < cols; d++ {
			cs, ce := bounds[d], bounds[d+1]
			if cs == ce || ce-cs == ge-gs {
				continue // no members, or no other range to point at
			}
			for col := range shared {
				switch {
				case col == d || bounds[col+1] == bounds[col]:
					shared[col] = noRef
				case col < d:
					shared[col] = int32(r.byID[bounds[col+1]-1])
				default:
					shared[col] = int32(r.byID[bounds[col]])
				}
			}
			for p := cs; p < ce; p++ {
				r.nodes[r.byID[p]].setRow(row, shared)
			}
		}
		for d := 0; d < cols; d++ {
			fill(row+1, bounds[d], bounds[d+1])
		}
	}
	fill(0, 0, n)
}

// nbCandidate is one neighborhood candidate with both its sort keys, each
// computed once: its proximity and its ring distance to the node.
type nbCandidate struct {
	ref  int32
	lat  time.Duration
	dist ids.Id
}

// fillNeighborhood sets node's neighborhood: of the 2|M| servers nearest by
// index — the candidate sequence neighborInsert used to consume one by one —
// the |M| first in (proximity, ring distance, identifier) order, the order
// neighborInsert keeps. One stable pass per distinct latency, lowest first,
// moves each latency's candidates to sorted (there are three between distinct
// servers of this topology, and the passes stop once |M| are placed); each
// such run is then ordered by ring distance. Under the hierarchy assigner
// ring distance grows with index distance, so a run arrives in order and the
// insertion sort makes one comparison a candidate. cands and sorted are the
// caller's scratch, returned for reuse.
func (r *Ring) fillNeighborhood(node *Node, cands, sorted []nbCandidate) ([]nbCandidate, []nbCandidate) {
	self, own := node.Addr(), node.ID()
	servers := r.topo.Servers()
	cands = cands[:0]
	next := time.Duration(math.MaxInt64)
	for d := 1; len(cands) < 2*r.cfg.NeighborhoodSize && d < servers; d++ {
		for _, srv := range [2]int{int(self) - d, int(self) + d} {
			if srv >= 0 && srv < servers {
				c := nbCandidate{ref: int32(srv), lat: r.lat(self, simnet.Addr(srv)), dist: r.dir[srv].Dist(own)}
				cands = append(cands, c)
				next = min(next, c.lat)
			}
		}
	}
	keep := min(len(cands), r.cfg.NeighborhoodSize)
	sorted = sorted[:0]
	for len(sorted) < keep {
		lat, start := next, len(sorted)
		next = time.Duration(math.MaxInt64)
		for _, c := range cands {
			switch {
			case c.lat == lat:
				sorted = append(sorted, c)
			case c.lat > lat:
				next = min(next, c.lat)
			}
		}
		run := sorted[start:]
		for i := 1; i < len(run); i++ {
			c := run[i]
			j := i
			for ; j > 0 && r.nearer(c, run[j-1]); j-- {
				run[j] = run[j-1]
			}
			run[j] = c
		}
	}
	node.neighbors = node.neighbors[:0]
	for _, c := range sorted[:keep] {
		node.neighbors = append(node.neighbors, c.ref)
	}
	return cands, sorted
}

// nearer orders two candidates of one latency as ids.CloserTo does: by ring
// distance, a tie to the smaller identifier.
func (r *Ring) nearer(a, b nbCandidate) bool {
	if c := a.dist.Cmp(b.dist); c != 0 {
		return c < 0
	}
	return r.dir[a.ref].Less(r.dir[b.ref])
}
