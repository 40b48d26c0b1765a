package scribe

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// scanNextChild is the child choice the any-cast search replaced, kept as its
// oracle: every unvisited child evaluated, the (latency, ring closeness)
// minimum kept.
func scanNextChild(s *Scribe, g *groupState, m *anycastMsg) pastry.NodeHandle {
	next := pastry.NoHandle
	var bestLat time.Duration
	for _, ref := range g.children {
		child := s.node.HandleOf(ref)
		if m.visited(child.Id) {
			continue
		}
		l := s.node.LatencyBetween(child.Addr, m.Origin.Addr)
		if next.IsNil() || l < bestLat || (l == bestLat && ids.CloserTo(m.Origin.Id, child.Id, next.Id)) {
			next, bestLat = child, l
		}
	}
	return next
}

// TestAnycastSearchMatchesScan holds the search against the scan on random
// child lists of one node of a three-tier ring, under both assigners: random
// visited sets, an origin among the children or not (the node itself, a
// child, any other server), and lists whose every child is visited, where
// both must answer NoHandle and the step backtracks.
func TestAnycastSearchMatchesScan(t *testing.T) {
	tp, err := topology.New(topology.Spec{
		Racks: 16, ServersPerRack: 8, RacksPerPod: 4, NICMbps: 1000, Oversubscription: 8,
		LANHop: time.Millisecond, LocalDelivery: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		name   string
		assign pastry.IdAssigner
	}{{"hierarchy", pastry.HierarchyAssigner}, {"random", randomAssigner}} {
		t.Run(a.name, func(t *testing.T) {
			ring := pastry.NewRing(sim.NewEngine(5), tp, pastry.Config{}, a.assign)
			ring.BuildStatic()
			scribes := make([]*Scribe, ring.Size())
			for i, n := range ring.Nodes() {
				scribes[i] = New(n)
			}
			rng := rand.New(rand.NewSource(1))
			exhausted := 0
			for trial := 0; trial < 4000; trial++ {
				s := scribes[rng.Intn(len(scribes))]
				g := &groupState{group: GroupKey("search"), parent: pastry.NoHandle}
				// A child list of any size up to the whole ring but the node.
				for _, i := range rng.Perm(ring.Size())[:rng.Intn(ring.Size())] {
					if h := ring.Node(i).Handle(); h.Addr != s.node.Addr() {
						g.putChild(s.node, h)
					}
				}
				m := &anycastMsg{Group: g.group}
				switch r := rng.Intn(4); {
				case r == 0 || len(g.children) == 0:
					m.Origin = ring.Node(rng.Intn(ring.Size())).Handle()
				case r == 1:
					m.Origin = s.node.Handle()
				default:
					m.Origin = s.node.HandleOf(g.children[rng.Intn(len(g.children))])
				}
				switch rng.Intn(4) {
				case 0: // nothing visited yet
				case 1: // everything visited
					for _, ref := range g.children {
						m.Visited = append(m.Visited, s.node.HandleOf(ref).Id)
					}
				default:
					p := rng.Float64()
					for _, ref := range g.children {
						if rng.Float64() < p {
							m.Visited = append(m.Visited, s.node.HandleOf(ref).Id)
						}
					}
					if rng.Intn(2) == 0 {
						m.Visited = append(m.Visited, m.Origin.Id)
					}
				}
				got, want := s.nextChild(g, m), scanNextChild(s, g, m)
				if got != want {
					t.Fatalf("trial %d: %d children, origin %v, %d visited: search picked %v, the scan %v",
						trial, len(g.children), m.Origin, len(m.Visited), got, want)
				}
				if want.IsNil() {
					exhausted++
				}
			}
			if exhausted == 0 {
				t.Fatal("no trial exhausted its children; the backtrack case went untested")
			}
		})
	}
}

// randomAssigner derives a pseudo-random identifier per server (classic
// Pastry, no topology awareness): the baseline against HierarchyAssigner.
func randomAssigner(index, total int) ids.Id {
	return ids.HashString(fmt.Sprintf("node-%d/%d", index, total))
}
