package scribe

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// protocolTreeDigest is the FNV-1a digest of the (parent, child) address
// pairs of the tree below, sorted.
const protocolTreeDigest = 0x64928ed32bc63c4b

// TestProtocolJoinGraftsTheRouteSource builds a static ring, crashes every
// fourth of its 256 nodes and rejoins them one by one, each from its own
// checkpoint while the victims after it are still down, so that their tables
// are not the converged ones. Then those 64 nodes join one group, and their
// first hops, off unconverged tables, graft some of the joins at forwarders. A join carries no child: the node that
// grafts it reads the child off the route. Every routed hop of the run is a
// join, and a join is grafted at the first node it reaches, so the child
// edges must be exactly the routed hops (sender → grafting node), every
// parent chain must reach the root, and the edge set must be the one the
// joins that named their child built.
func TestProtocolJoinGraftsTheRouteSource(t *testing.T) {
	tp, err := topology.New(topology.Spec{
		Racks: 16, ServersPerRack: 16, RacksPerPod: 4, NICMbps: 1000, Oversubscription: 8,
		LANHop: time.Millisecond, LocalDelivery: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(13)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	net := ring.Network()
	checkpoints := make(map[int][]pastry.NodeHandle)
	for i := 0; i < ring.Size(); i += 4 {
		checkpoints[i] = ring.Node(i).Peers()
		net.Crash(ring.Node(i).Addr())
	}
	for i := 0; i < ring.Size(); i += 4 {
		ring.RebuildNode(i).Rejoin(checkpoints[i])
	}
	engine.Run()
	scribes := make([]*Scribe, ring.Size())
	for i, n := range ring.Nodes() {
		scribes[i] = New(n)
	}

	// Every routed envelope delivered from here on is a join: record its
	// network hop (the node that sent it, the node that received it).
	type edge struct{ parent, child simnet.Addr }
	hops := make(map[edge]bool)
	for _, n := range ring.Nodes() {
		n := n
		net.Attach(n.Addr(), simnet.HandlerFunc(func(from simnet.Addr, msg simnet.Message) {
			if fmt.Sprintf("%T", msg) == "*pastry.envelope" {
				hops[edge{parent: n.Addr(), child: from}] = true
			}
			n.HandleMessage(from, msg)
		}))
	}

	group := GroupKey("protocol-join")
	for i := 0; i < len(scribes); i += 4 {
		scribes[i].Join(group, Handlers{})
	}
	engine.Run()

	var root *Scribe
	var edges []edge
	byAddr := make(map[simnet.Addr]*Scribe, len(scribes))
	for _, s := range scribes {
		byAddr[s.Node().Addr()] = s
		if s.IsRoot(group) {
			root = s
		}
		for _, c := range s.Children(group) {
			edges = append(edges, edge{parent: s.Node().Addr(), child: c.Addr})
		}
	}
	if root == nil {
		t.Fatal("the group has no root")
	}
	forwarders := 0
	for _, s := range scribes {
		if !s.InTree(group) {
			continue
		}
		if !s.Member(group) {
			forwarders++
		}
		at := s
		for steps := 0; at != root; steps++ {
			p := at.Parent(group)
			if p.IsNil() || steps > len(scribes) {
				t.Fatalf("node %d: the parent chain stops at node %d, short of the root %d",
					s.Node().Addr(), at.Node().Addr(), root.Node().Addr())
			}
			at = byAddr[p.Addr]
		}
	}
	if forwarders == 0 {
		t.Fatal("no join was grafted at a forwarder")
	}
	for _, e := range edges {
		if !hops[e] {
			t.Errorf("node %d holds child %d, but no join was routed from %d to it", e.parent, e.child, e.child)
		}
	}
	if len(hops) != len(edges) {
		t.Errorf("%d routed hops, %d child edges: a join was not grafted where it arrived", len(hops), len(edges))
	}

	slices.SortFunc(edges, func(a, b edge) int {
		if a.parent != b.parent {
			return int(a.parent - b.parent)
		}
		return int(a.child - b.child)
	})
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "%d>%d;", e.parent, e.child)
	}
	t.Logf("%d members, %d forwarders, %d edges, digest %#x", len(scribes)/4, forwarders, len(edges), h.Sum64())
	if got := h.Sum64(); got != protocolTreeDigest {
		t.Errorf("the tree's edge digest is %#x, want %#x", got, uint64(protocolTreeDigest))
	}
}
