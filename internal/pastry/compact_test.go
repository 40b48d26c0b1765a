package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// refTables is the table layout the int32 refs replaced, kept as the model
// the compact tables are compared against: every slot holds a whole
// NodeHandle, and rtInsert, leafInsert, insertSortedByDist, neighborInsert
// and Forget are the bodies that layout ran, word for word.
type refTables struct {
	cfg    Config
	handle NodeHandle
	prox   simnet.LatencyFunc

	rt        []NodeHandle
	rtRows    int
	leafCW    []NodeHandle
	leafCCW   []NodeHandle
	neighbors []NodeHandle
}

func (n *refTables) rtSlot(l, d int) *NodeHandle {
	cols := n.cfg.cols()
	if l >= n.rtRows {
		need := (l + 1) * cols
		if need <= cap(n.rt) {
			old := len(n.rt)
			n.rt = n.rt[:need]
			for i := old; i < need; i++ {
				n.rt[i] = NoHandle
			}
		} else {
			grown := make([]NodeHandle, need)
			copy(grown, n.rt)
			for i := len(n.rt); i < need; i++ {
				grown[i] = NoHandle
			}
			n.rt = grown
		}
		n.rtRows = l + 1
	}
	return &n.rt[l*cols+d]
}

func (n *refTables) rtGet(l, d int) NodeHandle {
	if l < n.rtRows {
		return n.rt[l*n.cfg.cols()+d]
	}
	return NoHandle
}

func (n *refTables) Consider(h NodeHandle) {
	if h.IsNil() || h.Id == n.handle.Id {
		return
	}
	n.rtInsert(h)
	n.leafInsert(h)
	n.neighborInsert(h)
}

func (n *refTables) rtInsert(h NodeHandle) {
	l := n.handle.Id.CommonPrefixLen(h.Id, n.cfg.B)
	if l >= n.cfg.rows() {
		return // identical identifier; cannot happen for distinct nodes
	}
	d := h.Id.DigitAt(l, n.cfg.B)
	slot := n.rtSlot(l, d)
	switch {
	case slot.IsNil():
		*slot = h
	case slot.Id == h.Id:
		// refresh address (no-op in simulation)
		*slot = h
	default:
		// Keep the entry closer by network proximity (Pastry's locality
		// heuristic).
		if n.prox(n.handle.Addr, h.Addr) < n.prox(n.handle.Addr, slot.Addr) {
			*slot = h
		}
	}
}

func (n *refTables) cwDist(x ids.Id) ids.Id { return x.Sub(n.handle.Id) }

func (n *refTables) ccwDist(x ids.Id) ids.Id { return n.handle.Id.Sub(x) }

func (n *refTables) leafInsert(h NodeHandle) {
	half := n.cfg.LeafSize / 2
	n.leafCW = refInsertSortedByDist(n.leafCW, h, half, func(x ids.Id) ids.Id { return n.cwDist(x) })
	n.leafCCW = refInsertSortedByDist(n.leafCCW, h, half, func(x ids.Id) ids.Id { return n.ccwDist(x) })
}

func refInsertSortedByDist(list []NodeHandle, h NodeHandle, max int, dist func(ids.Id) ids.Id) []NodeHandle {
	d := dist(h.Id)
	pos := sort.Search(len(list), func(i int) bool {
		return !dist(list[i].Id).Less(d)
	})
	if pos < len(list) && list[pos].Id == h.Id {
		return list // already present
	}
	list = append(list, NodeHandle{})
	copy(list[pos+1:], list[pos:])
	list[pos] = h
	if len(list) > max {
		list = list[:max]
	}
	return list
}

func (n *refTables) neighborInsert(h NodeHandle) {
	for _, nb := range n.neighbors {
		if nb.Id == h.Id {
			return
		}
	}
	d := n.prox(n.handle.Addr, h.Addr)
	after := func(nb NodeHandle) bool {
		if di := n.prox(n.handle.Addr, nb.Addr); di != d {
			return di < d
		}
		return ids.CloserTo(n.handle.Id, nb.Id, h.Id)
	}
	full := len(n.neighbors) == n.cfg.NeighborhoodSize
	if full && after(n.neighbors[len(n.neighbors)-1]) {
		return
	}
	pos := sort.Search(len(n.neighbors), func(i int) bool { return !after(n.neighbors[i]) })
	if !full {
		n.neighbors = append(n.neighbors, NodeHandle{})
	}
	copy(n.neighbors[pos+1:], n.neighbors[pos:]) // when full, the last entry falls off
	n.neighbors[pos] = h
}

func (n *refTables) Forget(id ids.Id) {
	for i := range n.rt {
		if n.rt[i].Id == id {
			n.rt[i] = NoHandle
		}
	}
	n.leafCW = refRemoveByID(n.leafCW, id)
	n.leafCCW = refRemoveByID(n.leafCCW, id)
	n.neighbors = refRemoveByID(n.neighbors, id)
}

func refRemoveByID(list []NodeHandle, id ids.Id) []NodeHandle {
	out := list[:0]
	for _, h := range list {
		if h.Id != id {
			out = append(out, h)
		}
	}
	return out
}

// diff compares the model's tables with the node's, every slot of every
// row either side has grown, and describes the first difference.
func (n *refTables) diff(node *Node) string {
	rows := max(n.rtRows, node.rtRows)
	for l := 0; l < rows; l++ {
		for d := 0; d < n.cfg.cols(); d++ {
			if want, got := n.rtGet(l, d), node.RoutingTableEntry(l, d); got != want {
				return fmt.Sprintf("rt[%d][%d] = %v, model has %v", l, d, got, want)
			}
		}
	}
	nb, ccw, cw := adjacentHandles(node)
	for _, set := range []struct {
		name      string
		got, want []NodeHandle
	}{{"leafCW", cw, n.leafCW}, {"leafCCW", ccw, n.leafCCW}, {"neighbors", nb, n.neighbors}} {
		if len(set.got) != len(set.want) {
			return fmt.Sprintf("%s holds %d entries, model has %d", set.name, len(set.got), len(set.want))
		}
		for i := range set.got {
			if set.got[i] != set.want[i] {
				return fmt.Sprintf("%s[%d] = %v, model has %v", set.name, i, set.got[i], set.want[i])
			}
		}
	}
	return ""
}

// TestCompactTablesMatchReference drives one node and the []NodeHandle model
// with the same random Consider/Forget/declareDead sequence and compares the
// materialised tables after every operation. The peers come from a window
// around the node a little wider than its tables, so slots fill up, entries
// compete on proximity and on ring distance, and removals reopen them.
func TestCompactTablesMatchReference(t *testing.T) {
	const seeds, ops = 50, 2000
	for _, tc := range []struct {
		name   string
		assign IdAssigner
	}{{"hierarchy", HierarchyAssigner}, {"random", RandomAssigner}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ring := NewRing(sim.NewEngine(seed), testTopo(t, 12, 8), Config{}, tc.assign) // 96 nodes in six pods
				node := ring.Node(rng.Intn(ring.Size()))
				model := &refTables{cfg: node.ring.cfg, handle: node.handle, prox: node.ring.lat}
				pick := func() NodeHandle {
					switch r := rng.Intn(40); {
					case r == 0:
						return NoHandle
					case r == 1:
						return node.Handle()
					case r < 20:
						// A physical neighbor: same rack or the next one over.
						a := (int(node.Addr()) + rng.Intn(25) - 12 + ring.Size()) % ring.Size()
						return ring.Node(a).Handle()
					default:
						return ring.Node(rng.Intn(ring.Size())).Handle()
					}
				}
				for op := 0; op < ops; op++ {
					h := pick()
					var what string
					switch r := rng.Intn(10); {
					case r < 7:
						what = "Consider"
						node.consider(h)
						model.Consider(h)
					case r < 9 || h.IsNil():
						what = "Forget"
						node.Forget(h.Id)
						model.Forget(h.Id)
					default:
						what = "declareDead"
						node.declareDead(h)
						model.Forget(h.Id)
					}
					if d := model.diff(node); d != "" {
						t.Fatalf("seed %d op %d (%s %v): %s", seed, op, what, h, d)
					}
				}
			}
		})
	}
}

// checkHandlesMatchDirectory walks every table of every node: each ref must
// be an address of the ring, and the handle it materialises must be the
// handle of the node at that address — the directory is the truth for every
// table, and the nodes agree with it.
func checkHandlesMatchDirectory(t *testing.T, ring *Ring, when string) {
	t.Helper()
	for a, node := range ring.Nodes() {
		if want := (NodeHandle{Id: ring.dir[a], Addr: simnet.Addr(a)}); node.Handle() != want {
			t.Fatalf("%s: node at address %d calls itself %v, the directory says %v", when, a, node.Handle(), want)
		}
		tables := map[string][]int32{"rt": node.rt, "leafCW": node.leafCW, "leafCCW": node.leafCCW, "neighbors": node.neighbors}
		for name, refs := range tables {
			for i, ref := range refs {
				if ref == noRef && name == "rt" {
					continue
				}
				if ref < 0 || int(ref) >= ring.Size() {
					t.Fatalf("%s: node %d %s[%d] = %d, not an address of the ring", when, a, name, i, ref)
				}
				if got, want := node.HandleOf(ref), ring.Node(int(ref)).Handle(); got != want {
					t.Fatalf("%s: node %d %s[%d] materialises %v, node %d is %v", when, a, name, i, got, ref, want)
				}
			}
		}
		// A ref filed under another identifier than its own would still
		// materialise a valid handle; its position gives it away.
		cols := node.ring.cfg.cols()
		for i, ref := range node.rt {
			if ref == noRef {
				continue
			}
			l, d := i/cols, i%cols
			id := ring.dir[ref]
			if node.ID().CommonPrefixLen(id, node.ring.cfg.B) != l || id.DigitAt(l, node.ring.cfg.B) != d {
				t.Fatalf("%s: node %d rt[%d][%d] holds %v, which does not belong there", when, a, l, d, node.HandleOf(ref))
			}
		}
		for i := 1; i < len(node.leafCW); i++ {
			if !node.cwDist(ring.dir[node.leafCW[i-1]]).Less(node.cwDist(ring.dir[node.leafCW[i]])) {
				t.Fatalf("%s: node %d leafCW out of order at %d", when, a, i)
			}
		}
		for i := 1; i < len(node.leafCCW); i++ {
			if !node.ccwDist(ring.dir[node.leafCCW[i-1]]).Less(node.ccwDist(ring.dir[node.leafCCW[i]])) {
				t.Fatalf("%s: node %d leafCCW out of order at %d", when, a, i)
			}
		}
		for _, h := range node.Peers() {
			if !inDirectory(ring.dir, h) {
				t.Fatalf("%s: node %d checkpoints %v, which the ring does not have", when, a, h)
			}
		}
	}
}

func TestHandlesMatchDirectory(t *testing.T) {
	for _, tc := range []struct {
		name   string
		assign IdAssigner
	}{{"hierarchy", HierarchyAssigner}, {"random", RandomAssigner}} {
		t.Run(tc.name, func(t *testing.T) {
			// The directory is the assigner applied to each address.
			engine := sim.NewEngine(11)
			ring := NewRing(engine, testTopo(t, 5, 8), Config{}, tc.assign)
			for a := 0; a < ring.Size(); a++ {
				if ring.dir[a] != tc.assign(a, ring.Size()) {
					t.Fatalf("dir[%d] = %v, assigner gives %v", a, ring.dir[a], tc.assign(a, ring.Size()))
				}
			}

			ring.BuildStatic()
			checkHandlesMatchDirectory(t, ring, "after BuildStatic")
			ring.StartMaintenance()
			engine.RunFor(3 * 30 * time.Second)
			checkHandlesMatchDirectory(t, ring, "after maintenance")

			// After a crash/restart/rejoin sweep over every fourth node, with
			// maintenance repairing around each.
			for i := 0; i < ring.Size(); i += 4 {
				old := ring.Node(i)
				peers := old.Peers()
				ring.Network().Crash(old.Addr())
				engine.RunFor(30 * time.Second)
				node := ring.RebuildNode(i)
				if node.Handle() != old.Handle() {
					t.Fatalf("RebuildNode(%d) made %v out of %v", i, node.Handle(), old.Handle())
				}
				node.Rejoin(peers)
				node.StartMaintenance()
				engine.RunFor(30 * time.Second)
			}
			engine.RunFor(3 * 30 * time.Second)
			ring.StopMaintenance()
			engine.Run()
			checkHandlesMatchDirectory(t, ring, "after the restart sweep")
		})
	}
}

// TestRejoinSkipsForeignPeers hands Rejoin a checkpoint that names nodes the
// ring does not have: addresses past its end, negative ones, and a real
// address under another ring's identifier.
func TestRejoinSkipsForeignPeers(t *testing.T) {
	ring, _ := buildStaticRing(t, 4, 8, HierarchyAssigner)
	other := NewRing(sim.NewEngine(2), testTopo(t, 16, 8), Config{}, RandomAssigner)
	old := ring.Node(5)
	peers := old.Peers()
	own := make(map[NodeHandle]bool)
	for _, h := range peers {
		own[h] = true
	}
	peers = append(peers,
		NodeHandle{Id: ids.New(1, 2), Addr: simnet.Addr(ring.Size())},
		NodeHandle{Id: ids.New(3, 4), Addr: 1 << 40},
		NodeHandle{Id: ids.New(5, 6), Addr: -7},
	)
	for _, n := range other.Nodes() {
		peers = append(peers, n.Handle())
	}
	ring.Network().Crash(old.Addr())
	node := ring.RebuildNode(5)
	if foreign, want := node.Rejoin(peers), 3+other.Size(); foreign != want {
		t.Fatalf("Rejoin skipped %d foreign peers, want %d", foreign, want)
	}
	got := node.Peers()
	if len(got) == 0 {
		t.Fatal("rejoined node knows nobody")
	}
	for _, h := range got {
		if !own[h] {
			t.Fatalf("rejoined node knows %v, which its own checkpoint did not hold", h)
		}
	}
	checkHandlesMatchDirectory(t, ring, "after a foreign checkpoint")
}

// TestConsiderMemoMatchesFullConsider drives one node of a 64-node ring, whose
// consider returns at once for the sender it considered last, and the model,
// whose Consider always runs the three inserts, with the same random sequence
// in which senders come in runs, as a spill walk's hops or a gateway's queries
// do, and a Forget may fall inside a run (the peer has then to go back in).
// Routing table, both leaf halves and the neighborhood set must be equal after
// every operation.
func TestConsiderMemoMatchesFullConsider(t *testing.T) {
	const seeds, ops = 50, 2000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		assign := HierarchyAssigner
		if seed%2 == 0 {
			assign = RandomAssigner
		}
		ring := NewRing(sim.NewEngine(seed), testTopo(t, 8, 8), Config{}, assign)
		node := ring.Node(rng.Intn(ring.Size()))
		model := &refTables{cfg: node.ring.cfg, handle: node.handle, prox: node.ring.lat}
		h := ring.Node(0).Handle() // the first sender is ref 0: a fresh node must not take it for considered
		skipped := 0
		for op := 0; op < ops; op++ {
			if rng.Intn(3) == 0 { // a run lasts three operations on average
				h = ring.Node(rng.Intn(ring.Size())).Handle()
			}
			what := "Consider"
			if rng.Intn(8) == 0 {
				what = "Forget"
				node.Forget(h.Id)
				model.Forget(h.Id)
			} else {
				if int32(h.Addr) == node.lastConsidered {
					skipped++
				}
				node.consider(h)
				model.Consider(h)
			}
			if d := model.diff(node); d != "" {
				t.Fatalf("seed %d op %d (%s %v): %s", seed, op, what, h, d)
			}
		}
		if skipped < ops/4 {
			t.Fatalf("seed %d: the memo answered %d of %d operations; the sequence has too few repeats to test it", seed, skipped, ops)
		}
	}
}
