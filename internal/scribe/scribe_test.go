package scribe

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// fixture builds a static ring with a Scribe instance per node.
// Member reports whether this node is a subscribed member of group.
func (s *Scribe) Member(group ids.Id) bool {
	g := s.group(group)
	return g != nil && g.member
}

// Stats returns operation counters for overhead analysis: joins processed,
// multicast relays and any-cast visits at this node.
func (s *Scribe) Stats() (joins, multicasts, anycasts int) {
	return int(s.joinsHandled.Value()), int(s.multicastsRelayed.Value()), int(s.anycastsSeen.Value())
}

type fixture struct {
	engine  *sim.Engine
	ring    *pastry.Ring
	scribes []*Scribe
}

func newFixture(t *testing.T, racks, perRack int) *fixture {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      2,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	engine := sim.NewEngine(11)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	f := &fixture{engine: engine, ring: ring, scribes: make([]*Scribe, ring.Size())}
	for i, n := range ring.Nodes() {
		f.scribes[i] = New(n)
	}
	return f
}

// treeCheck walks the group tree from the root; it returns the set of nodes
// reached and fails on cycles.
func (f *fixture) treeCheck(t *testing.T, group ids.Id) map[ids.Id]bool {
	t.Helper()
	var root *Scribe
	for _, s := range f.scribes {
		if s.IsRoot(group) {
			if root != nil {
				t.Fatalf("two roots for group %s", group.Short())
			}
			root = s
		}
	}
	if root == nil {
		t.Fatalf("no root for group %s", group.Short())
	}
	byID := make(map[ids.Id]*Scribe, len(f.scribes))
	for _, s := range f.scribes {
		byID[s.Node().ID()] = s
	}
	reached := make(map[ids.Id]bool)
	var walk func(s *Scribe)
	walk = func(s *Scribe) {
		id := s.Node().ID()
		if reached[id] {
			t.Fatalf("cycle in tree at %s", id.Short())
		}
		reached[id] = true
		for _, child := range s.Children(group) {
			cs, ok := byID[child.Id]
			if !ok {
				t.Fatalf("child %s not a known node", child.Id.Short())
			}
			walk(cs)
		}
	}
	walk(root)
	return reached
}

func TestJoinBuildsConnectedTree(t *testing.T) {
	f := newFixture(t, 4, 8) // 32 nodes
	group := GroupKey("BW_Capacity")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()
	reached := f.treeCheck(t, group)
	for _, s := range f.scribes {
		if !s.Member(group) {
			t.Fatalf("node %s not a member", s.Node().ID().Short())
		}
		if !reached[s.Node().ID()] {
			t.Errorf("member %s unreachable from root", s.Node().ID().Short())
		}
	}
}

func TestMulticastReachesAllMembersExactlyOnce(t *testing.T) {
	f := newFixture(t, 4, 8)
	group := GroupKey("news")
	got := make(map[ids.Id]int)
	// Half the nodes join.
	for i, s := range f.scribes {
		if i%2 == 0 {
			id := s.Node().ID()
			s.Join(group, Handlers{
				OnMulticast: func(g ids.Id, payload simnet.Message, from pastry.NodeHandle) {
					if payload != "flash" {
						t.Errorf("payload = %v", payload)
					}
					got[id]++
				},
			})
		}
	}
	f.engine.Run()
	// Publish from a non-member.
	f.scribes[1].Multicast(group, "flash")
	f.engine.Run()
	members := 0
	for i, s := range f.scribes {
		if i%2 != 0 {
			continue
		}
		members++
		if got[s.Node().ID()] != 1 {
			t.Errorf("member %d received %d copies", i, got[s.Node().ID()])
		}
	}
	if members == 0 {
		t.Fatal("no members in test")
	}
}

func TestMulticastFromMemberAlsoDeliversLocally(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("self-delivery")
	counts := make([]int, len(f.scribes))
	for i, s := range f.scribes {
		i := i
		s.Join(group, Handlers{
			OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) { counts[i]++ },
		})
	}
	f.engine.Run()
	f.scribes[3].Multicast(group, "x")
	f.engine.Run()
	for i, c := range counts {
		if c != 1 {
			t.Errorf("node %d received %d copies", i, c)
		}
	}
}

func TestAnycastAcceptedByExactlyOneMember(t *testing.T) {
	f := newFixture(t, 4, 8)
	group := GroupKey("less-loaded")
	accepts := make(map[ids.Id]int)
	for i, s := range f.scribes {
		if i%4 == 0 {
			id := s.Node().ID()
			s.Join(group, Handlers{
				OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool {
					accepts[id]++
					return true
				},
			})
		}
	}
	f.engine.Run()
	var result *AnycastResult
	f.scribes[3].Anycast(group, "need 100 Mbps", func(r AnycastResult) { result = &r })
	f.engine.Run()
	if result == nil {
		t.Fatal("anycast callback never fired")
	}
	if !result.Accepted {
		t.Fatal("anycast not accepted despite willing members")
	}
	total := 0
	for _, c := range accepts {
		total += c
	}
	if total != 1 {
		t.Fatalf("anycast accepted %d times, want 1", total)
	}
	if result.By.IsNil() {
		t.Fatal("result.By is nil")
	}
	if accepts[result.By.Id] != 1 {
		t.Fatal("result.By does not match the accepting node")
	}
}

func TestAnycastVisitsUntilAcceptor(t *testing.T) {
	// All members reject except one specific node; the DFS must find it.
	f := newFixture(t, 4, 4)
	group := GroupKey("needle")
	var acceptorID ids.Id
	for i, s := range f.scribes {
		accept := i == 13
		if accept {
			acceptorID = s.Node().ID()
		}
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return accept },
		})
	}
	f.engine.Run()
	var result *AnycastResult
	f.scribes[0].Anycast(group, "q", func(r AnycastResult) { result = &r })
	f.engine.Run()
	if result == nil || !result.Accepted {
		t.Fatalf("anycast failed: %+v", result)
	}
	if result.By.Id != acceptorID {
		t.Fatalf("accepted by %s, want %s", result.By.Id.Short(), acceptorID.Short())
	}
	if result.Visited < 1 {
		t.Fatalf("visited %d nodes", result.Visited)
	}
}

func TestAnycastAllRejectReportsFailure(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("nobody-home")
	for _, s := range f.scribes {
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return false },
		})
	}
	f.engine.Run()
	var result *AnycastResult
	f.scribes[0].Anycast(group, "q", func(r AnycastResult) { result = &r })
	f.engine.Run()
	if result == nil {
		t.Fatal("no verdict")
	}
	if result.Accepted {
		t.Fatal("anycast accepted with all members rejecting")
	}
}

func TestAnycastNoTreeReportsFailure(t *testing.T) {
	f := newFixture(t, 2, 4)
	var result *AnycastResult
	f.scribes[0].Anycast(GroupKey("ghost-group"), "q", func(r AnycastResult) { result = &r })
	f.engine.Run()
	if result == nil || result.Accepted {
		t.Fatalf("want explicit failure, got %+v", result)
	}
}

func TestAnycastPrefersTopologicallyCloseAcceptor(t *testing.T) {
	// Members in every rack; the acceptor chosen for an origin should sit in
	// the origin's rack when the tree offers a choice there.
	f := newFixture(t, 4, 8)
	group := GroupKey("close-pref")
	for _, s := range f.scribes {
		s.Join(group, Handlers{
			OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
		})
	}
	f.engine.Run()
	topo := f.ring.Topology()
	sameRack := 0
	const trials = 16
	for i := 0; i < trials; i++ {
		origin := i * 2
		var res *AnycastResult
		f.scribes[origin].Anycast(group, "q", func(r AnycastResult) { res = &r })
		f.engine.Run()
		if res == nil || !res.Accepted {
			t.Fatalf("trial %d failed", i)
		}
		if topo.SameRack(origin, int(res.By.Addr)) {
			sameRack++
		}
	}
	// Self-acceptance counts as same-rack; with every node a member, the
	// overwhelming majority of searches should resolve nearby.
	if sameRack < trials*3/4 {
		t.Errorf("only %d/%d anycasts resolved in-rack", sameRack, trials)
	}
}

func TestAnycastVisitBound(t *testing.T) {
	// A full-tree rejection visits every member at most once: Visited is
	// bounded by the group size.
	f := newFixture(t, 4, 4)
	group := GroupKey("bounded")
	members := 0
	for i, s := range f.scribes {
		if i%2 == 0 {
			members++
			s.Join(group, Handlers{
				OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return false },
			})
		}
	}
	f.engine.Run()
	var res *AnycastResult
	f.scribes[1].Anycast(group, "q", func(r AnycastResult) { res = &r })
	f.engine.Run()
	if res == nil || res.Accepted {
		t.Fatalf("want exhaustive rejection, got %+v", res)
	}
	// The DFS may pass through forwarder nodes too, but never more than
	// the whole overlay.
	if res.Visited > len(f.scribes) {
		t.Fatalf("visited %d > overlay size %d", res.Visited, len(f.scribes))
	}
	if res.Visited < members {
		t.Fatalf("visited %d < member count %d: rejection not exhaustive", res.Visited, members)
	}
}

func TestLeavePrunesForwarders(t *testing.T) {
	f := newFixture(t, 4, 8)
	group := GroupKey("ephemeral")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()
	for _, s := range f.scribes {
		s.Leave(group)
	}
	f.engine.Run()
	// After everyone leaves, only the root may remain in the tree state.
	for i, s := range f.scribes {
		if s.InTree(group) && !s.IsRoot(group) {
			t.Errorf("node %d still in tree after global leave", i)
		}
		if s.Member(group) {
			t.Errorf("node %d still member after leave", i)
		}
	}
}

func TestRejoinAfterLeave(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("flapper")
	s := f.scribes[5]
	s.Join(group, Handlers{})
	f.engine.Run()
	s.Leave(group)
	f.engine.Run()
	got := 0
	s.Join(group, Handlers{
		OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) { got++ },
	})
	f.engine.Run()
	f.scribes[0].Multicast(group, "wb")
	f.engine.Run()
	if got != 1 {
		t.Fatalf("rejoined member received %d multicasts", got)
	}
}

func TestTreeRepairAfterNodeFailure(t *testing.T) {
	f := newFixture(t, 4, 8)
	group := GroupKey("resilient")
	counts := make(map[ids.Id]int)
	for _, s := range f.scribes {
		id := s.Node().ID()
		s.Join(group, Handlers{
			OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) { counts[id]++ },
		})
	}
	f.engine.Run()

	// Kill an interior node of the tree (one with children, not the root).
	var victim *Scribe
	for _, s := range f.scribes {
		if len(s.Children(group)) > 0 && !s.IsRoot(group) {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Skip("tree has no interior non-root node")
	}
	f.ring.Network().Kill(victim.Node().Addr())

	// Run heartbeat maintenance long enough for orphans to re-join.
	for _, s := range f.scribes {
		s.StartMaintenance(10 * time.Second)
	}
	f.engine.RunFor(2 * time.Minute)
	for _, s := range f.scribes {
		s.StopMaintenance()
	}
	f.engine.Run()

	for k := range counts {
		delete(counts, k)
	}
	f.scribes[0].Multicast(group, "after-failure")
	f.engine.Run()

	missing := 0
	for _, s := range f.scribes {
		if s == victim {
			continue
		}
		if counts[s.Node().ID()] != 1 {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d live members missed the post-failure multicast", missing)
	}
}

// testPush is an upward payload: it names its group and counts the tree edge
// in its wire size, as scribe.Upward asks.
type testPush struct {
	group ids.Id
	body  string
}

func (p *testPush) TreeGroup() ids.Id { return p.group }
func (p *testPush) WireSize() int     { return TreeEdgeWireBytes + len(p.body) }

// pushLog is a tree listener that hands every push to a function and
// ignores child drops and multicasts.
type pushLog func(group ids.Id, payload simnet.Message, from pastry.NodeHandle)

func (pushLog) ChildDropped(_, _ ids.Id)                             {}
func (pushLog) MemberData(ids.Id, simnet.Message, pastry.NodeHandle) {}
func (f pushLog) ParentData(group ids.Id, payload simnet.Message, from pastry.NodeHandle) {
	f(group, payload, from)
}

func TestSendToParentAndChildren(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("agg")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()

	// Find a non-root member and its parent.
	var child *Scribe
	for _, s := range f.scribes {
		if !s.IsRoot(group) && !s.Parent(group).IsNil() {
			child = s
			break
		}
	}
	if child == nil {
		t.Fatal("no non-root member")
	}
	parentHandle := child.Parent(group)
	var parent *Scribe
	for _, s := range f.scribes {
		if s.Node().ID() == parentHandle.Id {
			parent = s
			break
		}
	}
	if parent == nil {
		t.Fatal("parent not found")
	}

	var upGot simnet.Message
	parent.SetTreeListener(pushLog(func(g ids.Id, payload simnet.Message, from pastry.NodeHandle) {
		upGot = payload
		if g != group || from != child.Node().Handle() {
			t.Errorf("push in %s from %s, want %s from %s", g.Short(), from.Id.Short(), group.Short(), child.Node().ID().Short())
		}
	}))
	push := &testPush{group: group, body: "partial-sum"}
	sent := func() int { return f.ring.Network().CountersOf(child.Node().Addr()).BytesSent }
	before := sent()
	if !child.SendToParent(push) {
		t.Fatal("SendToParent returned false for attached child")
	}
	// One push on the wire: a direct envelope (application name and sender
	// handle) around the group key, the sender handle and the 11-byte body —
	// the 73 bytes it cost while a parentData wrapper carried the last three.
	if got := sent() - before; got != 73 {
		t.Fatalf("one push is %d bytes on the wire, want 73", got)
	}
	f.engine.Run()
	if upGot != push {
		t.Fatalf("parent received %v", upGot)
	}

	// A push naming a group this node has no tree for is not sent, and the
	// root cannot send to a parent.
	if child.SendToParent(&testPush{group: GroupKey("no-such-group")}) {
		t.Fatal("SendToParent returned true for an unknown group")
	}
	for _, s := range f.scribes {
		if s.IsRoot(group) {
			if s.SendToParent(&testPush{group: group, body: "x"}) {
				t.Fatal("root SendToParent returned true")
			}
		}
	}

	// A push that arrives after the receiver left the tree is dropped.
	upGot = nil
	if !child.SendToParent(push) {
		t.Fatal("second SendToParent returned false")
	}
	parent.groups = nil
	f.engine.Run()
	if upGot != nil {
		t.Fatalf("a node outside the tree delivered %v", upGot)
	}
}

func TestStatsCount(t *testing.T) {
	f := newFixture(t, 2, 4)
	group := GroupKey("stats")
	for _, s := range f.scribes {
		s.Join(group, Handlers{})
	}
	f.engine.Run()
	f.scribes[0].Multicast(group, "m")
	f.engine.Run()
	var joins, multis int
	for _, s := range f.scribes {
		j, m, _ := s.Stats()
		joins += j
		multis += m
	}
	if joins < len(f.scribes)-1 {
		t.Errorf("joins handled %d, want >= %d", joins, len(f.scribes)-1)
	}
	if multis < len(f.scribes) {
		t.Errorf("multicast relays %d, want >= member count", multis)
	}
}

func TestManyGroupsCoexist(t *testing.T) {
	f := newFixture(t, 2, 8)
	const groups = 10
	counts := make([]int, groups)
	for gi := 0; gi < groups; gi++ {
		gi := gi
		group := GroupKey(fmt.Sprintf("topic-%d", gi))
		for i, s := range f.scribes {
			if i%(gi+2) == 0 {
				s.Join(group, Handlers{
					OnMulticast: func(ids.Id, simnet.Message, pastry.NodeHandle) { counts[gi]++ },
				})
			}
		}
	}
	f.engine.Run()
	for gi := 0; gi < groups; gi++ {
		f.scribes[1].Multicast(GroupKey(fmt.Sprintf("topic-%d", gi)), gi)
	}
	f.engine.Run()
	for gi := 0; gi < groups; gi++ {
		members := 0
		for i := range f.scribes {
			if i%(gi+2) == 0 {
				members++
			}
		}
		if counts[gi] != members {
			t.Errorf("group %d: %d deliveries, want %d", gi, counts[gi], members)
		}
	}
}

// TestGroupKeyMemoMatchesHash: the remembered key of a name is the hash of the
// name, first time and every time after, with concurrent callers asking for
// overlapping names (shard goroutines subscribe in parallel; run under -race),
// and a name already known costs no allocation.
func TestGroupKeyMemoMatchesHash(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("memo-topic-%d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range names {
					name := names[(i*(2*g+1)+g)%len(names)]
					if got, want := GroupKey(name), ids.HashString(name); got != want {
						t.Errorf("GroupKey(%q) = %v, hash is %v", name, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if allocs := testing.AllocsPerRun(100, func() { GroupKey(names[0]) }); allocs != 0 {
		t.Fatalf("GroupKey of a known name allocates %v objects, want 0", allocs)
	}
}

// TestTreeListenerIsOne: a node has one tree listener. A second one panics,
// as a second Register of an application name does, and nil clears the slot
// so that another can take it.
func TestTreeListenerIsOne(t *testing.T) {
	f := newFixture(t, 1, 2)
	s := f.scribes[0]
	first, second := pushLog(func(ids.Id, simnet.Message, pastry.NodeHandle) {}), &dropLog{}
	s.SetTreeListener(first)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second tree listener did not panic")
			}
		}()
		s.SetTreeListener(second)
	}()
	s.SetTreeListener(nil)
	s.SetTreeListener(second)
	if s.tree != second {
		t.Fatalf("the listener is %v, want the one installed after clearing", s.tree)
	}
}
