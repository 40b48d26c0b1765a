package aggregation

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/sizeclass"
	"vbundle/internal/topology"
)

// TestTopicStateSizeCeiling pins what one subscribed topic costs a server,
// 200 bytes, and what one fold list costs, 80. SubscribeAttr carves the
// topics and the fold lists come out of their engine's bank, so there is no
// size class to absorb a word and each ceiling is the size itself. A second
// inline attribute slot, or flags spread over separate words, cost 48 or 24
// bytes more; the cache and the last sent list as slices instead of fold
// list pointers, 32.
func TestTopicStateSizeCeiling(t *testing.T) {
	for _, c := range []struct {
		name          string
		size, ceiling uintptr
	}{
		{"topicState", unsafe.Sizeof(topicState{}), 200},
		{"foldList", unsafe.Sizeof(foldList{}), 80},
	} {
		if c.size > c.ceiling {
			t.Fatalf("aggregation.%s is %d bytes (it would fall into the %d-byte size class of its own); the ceiling is %d",
				c.name, c.size, sizeclass.Of(c.size), c.ceiling)
		}
		t.Logf("aggregation.%s: %d bytes, %d-byte size class", c.name, c.size, sizeclass.Of(c.size))
	}
}

// TestConstructionAllocatesPerLayer: building the overlay — NewRing,
// BuildStatic, a Scribe and a Manager on every node — allocates per layer,
// not per node. The nodes come out of one slice, their tables out of one
// arena, the Scribes and Managers out of their engine's slabs, the network's
// deliveries go to one handler an engine, and the hooks between the layers
// are interfaces: a closure or an object a node anywhere below shows up as
// one more object a node between the two sizes built here. What a node still
// costs is a slab chunk's share, a hundredth of an object.
func TestConstructionAllocatesPerLayer(t *testing.T) {
	const small, large, ceiling = 4096, 8192, 0.02
	build := func(nodes int) float64 {
		tp, err := topology.New(topology.Spec{
			Racks: nodes / 32, ServersPerRack: 32, RacksPerPod: 8, NICMbps: 1000, Oversubscription: 8,
			LANHop: 10 * time.Millisecond, LocalDelivery: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(1, func() {
			ring := pastry.NewRing(sim.NewEngine(1), tp, pastry.Config{}, pastry.HierarchyAssigner)
			ring.BuildStatic()
			for _, n := range ring.Nodes() {
				New(scribe.New(n), Config{})
			}
		})
	}
	a, b := build(small), build(large)
	perNode := (b - a) / (large - small)
	t.Logf("%.0f objects for %d nodes, %.0f for %d: %.4f a node + %.0f", a, small, b, large, perNode, a-perNode*small)
	if perNode > ceiling {
		t.Fatalf("each node past %d costs %.4f objects; the ceiling is %v", small, perNode, ceiling)
	}
}

// TestInfoBaseFollowsScribeChildren: on a ring with random identifiers
// (identifier order is not address order) the info base holds, after one
// round, exactly the refs of scribe's child edges in scribe's order — the
// identifier order the fold sums in — and it got there in one growth, not by
// doubling.
func TestInfoBaseFollowsScribeChildren(t *testing.T) {
	tp, err := topology.New(topology.Spec{
		Racks: 16, ServersPerRack: 8, RacksPerPod: 2, NICMbps: 1000, Oversubscription: 8,
		LANHop: 10 * time.Millisecond, LocalDelivery: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(5)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, randomAssigner)
	ring.BuildStatic()
	managers := make([]*Manager, ring.Size())
	for i, n := range ring.Nodes() {
		managers[i] = New(scribe.New(n), Config{UpdateInterval: time.Minute})
	}
	const topic = "BW_Demand"
	for _, m := range managers {
		m.Subscribe(topic, nil)
	}
	engine.Run()
	want := Aggregate{}
	for i, m := range managers {
		m.SetLocal(topic, float64(i))
		want = want.Fold(Sample(float64(i)))
	}
	engine.Run()

	key := scribe.GroupKey(topic)
	interior := 0
	for i, m := range managers {
		st := m.topic(key)
		children := m.sc.Children(key)
		if len(st.children) != len(children) {
			t.Fatalf("node %d: info base holds %d children, scribe %d", i, len(st.children), len(children))
		}
		for j, c := range st.children {
			if c.ref != int32(children[j].Addr) {
				t.Fatalf("node %d entry %d: info base ref %d, scribe child %d", i, j, c.ref, children[j].Addr)
			}
			if j > 0 && !m.childID(st.children[j-1].ref).Less(m.childID(c.ref)) {
				t.Fatalf("node %d: info base not in identifier order at entry %d", i, j)
			}
		}
		if k := len(children); k > 0 {
			interior++
			if cap(st.children) > k+k/4+1 {
				t.Fatalf("node %d: info base of %d children has capacity %d: it grew by doubling", i, k, cap(st.children))
			}
		}
		if m.sc.IsRoot(key) {
			m.PublishNow(topic)
			if got, _ := m.Global(topic); got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("root folded %+v, leaves hold %+v", got.Aggregate, want)
			}
		}
	}
	if interior < 2 {
		t.Fatalf("only %d interior nodes: the tree is too flat to test anything", interior)
	}
}

// randomAssigner derives a pseudo-random identifier per server (classic
// Pastry, no topology awareness): the baseline against HierarchyAssigner.
func randomAssigner(index, total int) ids.Id {
	return ids.HashString(fmt.Sprintf("node-%d/%d", index, total))
}
