package scribe

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/sizeclass"
	"vbundle/internal/topology"
)

// TestScribeSizeCeiling pins what one Scribe costs every server: 288 bytes.
// New carves the Scribes from their engine's slab, so there is no size class
// to absorb a word — every byte is one more a server — and the ceiling is the
// size itself. State that only an any-cast originator needs belongs in
// originator, not here, and what a layer above wants to hear is a method of
// its own object (TreeListener, OrphanAcceptor), not a func field.
func TestScribeSizeCeiling(t *testing.T) {
	const ceiling = 288
	size := unsafe.Sizeof(Scribe{})
	if size > ceiling {
		t.Fatalf("scribe.Scribe is %d bytes (it would fall into the %d-byte size class of its own); the ceiling is %d",
			size, sizeclass.Of(size), ceiling)
	}
	t.Logf("scribe.Scribe: %d bytes, %d-byte size class", size, sizeclass.Of(size))
}

// TestOriginatorStateIsLazy: tree members, forwarders, acceptors and
// fire-and-forget senders never make originator state; the first tracked
// Anycast does; a Scribe rebuilt after a crash starts without it again.
func TestOriginatorStateIsLazy(t *testing.T) {
	f := newFixture(t, 4, 8)
	group := GroupKey("less-loaded")
	for i, s := range f.scribes {
		if i%2 == 0 {
			s.Join(group, Handlers{
				OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true },
			})
		}
	}
	f.engine.Run()
	f.scribes[1].Anycast(group, "fire and forget", nil)
	f.engine.Run()
	for i, s := range f.scribes {
		if s.orig != nil {
			t.Fatalf("scribe %d has originator state and never tracked an any-cast", i)
		}
	}

	origin := f.scribes[3]
	var got *AnycastResult
	origin.Anycast(group, "tracked", func(r AnycastResult) { got = &r })
	if origin.orig == nil {
		t.Fatal("a tracked Anycast did not make the originator state")
	}
	f.engine.Run()
	if got == nil || !got.Accepted {
		t.Fatalf("tracked any-cast: %+v", got)
	}
	for i, s := range f.scribes {
		if s != origin && s.orig != nil {
			t.Fatalf("scribe %d has originator state after serving another node's any-cast", i)
		}
	}

	f.ring.Network().Crash(origin.Node().Addr())
	rebuilt := New(f.ring.RebuildNode(3))
	rebuilt.Node().Rejoin(origin.Node().Peers())
	rebuilt.Join(group, Handlers{})
	f.engine.RunFor(time.Second)
	if rebuilt.orig != nil {
		t.Fatal("a rebuilt scribe starts with originator state")
	}
}

// handleChildren is the children table as it was before refs: handles sorted
// by identifier, kept verbatim as the model the ref table is held against.
type handleChildren struct {
	children []pastry.NodeHandle
}

func (g *handleChildren) childIndex(id ids.Id) (int, bool) {
	i := sort.Search(len(g.children), func(i int) bool { return !g.children[i].Id.Less(id) })
	return i, i < len(g.children) && g.children[i].Id == id
}

func (g *handleChildren) putChild(h pastry.NodeHandle) {
	i, ok := g.childIndex(h.Id)
	if ok {
		g.children[i] = h
		return
	}
	g.children = append(g.children, pastry.NoHandle)
	copy(g.children[i+1:], g.children[i:])
	g.children[i] = h
}

func (g *handleChildren) dropChild(id ids.Id) bool {
	i, ok := g.childIndex(id)
	if !ok {
		return false
	}
	g.children = append(g.children[:i], g.children[i+1:]...)
	return true
}

// dropLog is a tree listener that records the child drops it is told of.
type dropLog struct{ children []ids.Id }

func (d *dropLog) ChildDropped(_, child ids.Id)                         { d.children = append(d.children, child) }
func (d *dropLog) ParentData(ids.Id, simnet.Message, pastry.NodeHandle) {}
func (d *dropLog) MemberData(ids.Id, simnet.Message, pastry.NodeHandle) {}

// TestChildRefsMatchHandleModel drives the ref table and the handle model
// with the same random puts and drops on a ring with random identifiers,
// where identifier order is not address order, and compares what the public
// accessors return after every operation.
func TestChildRefsMatchHandleModel(t *testing.T) {
	tp, err := topology.New(topology.Spec{
		Racks: 8, ServersPerRack: 8, RacksPerPod: 2, NICMbps: 1000, Oversubscription: 8,
		LANHop: time.Millisecond, LocalDelivery: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := pastry.NewRing(sim.NewEngine(11), tp, pastry.Config{}, pastry.RandomAssigner)
	ring.BuildStatic()
	ordered := true
	for i := 1; i < ring.Size(); i++ {
		ordered = ordered && ring.Node(i-1).ID().Less(ring.Node(i).ID())
	}
	if ordered {
		t.Fatal("identifier order equals address order: the test would not tell a table sorted by ref from one sorted by identifier")
	}
	s := New(ring.Node(0))
	group := GroupKey("model")
	g := s.stateFor(group)
	var model handleChildren
	drops := &dropLog{}
	s.SetTreeListener(drops)

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 400; op++ {
			h := ring.Node(1 + rng.Intn(ring.Size()-1)).Handle()
			if rng.Intn(3) > 0 {
				g.putChild(s.node, h)
				model.putChild(h)
			} else {
				drops.children = drops.children[:0]
				got, want := s.dropChildOf(g, h.Id), model.dropChild(h.Id)
				if got != want {
					t.Fatalf("seed %d op %d: dropChild(%v) = %v, model %v", seed, op, h.Id.Short(), got, want)
				}
				if n := len(drops.children); (want && (n != 1 || drops.children[0] != h.Id)) || (!want && n != 0) {
					t.Fatalf("seed %d op %d: the drop listener saw %v, want [%v] if dropped", seed, op, drops.children, h.Id)
				}
			}
			var each []pastry.NodeHandle
			s.ForEachChild(group, func(c pastry.NodeHandle) { each = append(each, c) })
			children := s.Children(group)
			if len(each) != len(model.children) || len(children) != len(model.children) || s.ChildCount(group) != len(model.children) {
				t.Fatalf("seed %d op %d: %d/%d/%d children, model has %d",
					seed, op, len(each), len(children), s.ChildCount(group), len(model.children))
			}
			for i, want := range model.children {
				if each[i] != want || children[i] != want {
					t.Fatalf("seed %d op %d child %d: ForEachChild %v, Children %v, model %v",
						seed, op, i, each[i], children[i], want)
				}
			}
			if s.HasChild(group, h.Id) != func() bool { _, ok := model.childIndex(h.Id); return ok }() {
				t.Fatalf("seed %d op %d: HasChild(%v) disagrees with the model", seed, op, h.Id.Short())
			}
		}
	}
}
