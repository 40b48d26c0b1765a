package pastry

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// closestLiveScan is the exhaustive reference for Ring.ClosestLive: every
// live node compared against the key, no rank index, no liveness bitmap.
func closestLiveScan(r *Ring, key ids.Id) *Node {
	var best *Node
	for _, n := range r.Nodes() {
		if !r.Network().Alive(n.Addr()) {
			continue
		}
		if best == nil || ids.CloserTo(key, n.ID(), best.ID()) {
			best = n
		}
	}
	return best
}

// TestClosestLiveMatchesScan replays random queries against the indexed
// ClosestLive and the exhaustive scan while killing and reviving random
// subsets of nodes, covering both assigners (evenly spaced and hashed
// identifiers) and the all-dead edge.
func TestClosestLiveMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		assign IdAssigner
	}{{"hierarchy", HierarchyAssigner}, {"random", RandomAssigner}} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine(5)
			ring := NewRing(engine, testTopo(t, 5, 8), Config{}, tc.assign) // 40 nodes
			rng := engine.Rand()
			check := func() {
				for q := 0; q < 50; q++ {
					key := ids.Random(rng)
					got, want := ring.ClosestLive(key), closestLiveScan(ring, key)
					if got != want {
						t.Fatalf("ClosestLive(%s) = %v, scan says %v",
							key.Short(), got.Handle(), want.Handle())
					}
				}
				// Node identifiers themselves are the exact-match edge.
				for _, n := range ring.Nodes() {
					got, want := ring.ClosestLive(n.ID()), closestLiveScan(ring, n.ID())
					if got != want {
						t.Fatalf("ClosestLive(own id %s) = %v, scan says %v",
							n.ID().Short(), got.Handle(), want.Handle())
					}
				}
			}
			check()
			// Crash random subsets, re-check, re-attach some, re-check.
			for round := 0; round < 10; round++ {
				for i := 0; i < 8; i++ {
					ring.Network().Crash(simnet.Addr(rng.Intn(ring.Size())))
				}
				check()
				for i := 0; i < 4; i++ {
					j := rng.Intn(ring.Size())
					ring.Network().Attach(simnet.Addr(j), ring.Node(j))
				}
				check()
			}
			// All dead: both must report no node.
			for i := 0; i < ring.Size(); i++ {
				ring.Network().Crash(simnet.Addr(i))
			}
			if got := ring.ClosestLive(ids.Random(rng)); got != nil {
				t.Fatalf("ClosestLive on dead ring = %v, want nil", got.Handle())
			}
			if got := closestLiveScan(ring, ids.Random(rng)); got != nil {
				t.Fatalf("scan on dead ring = %v, want nil", got.Handle())
			}
		})
	}
}

// BenchmarkClosestLive measures the ground-truth query both ways at 4096
// nodes with a quarter of the ring dead — the satellite win this PR claims:
// the indexed lookup stays microsecond-scale while the scan is linear in
// ring size. Every verification pass of the large experiments issues
// thousands of these queries.
func BenchmarkClosestLive(b *testing.B) {
	engine := sim.NewEngine(3)
	topo := benchTopo(b, 64, 64) // 4096 servers
	ring := NewRing(engine, topo, Config{}, HierarchyAssigner)
	rng := engine.Rand()
	for i := 0; i < ring.Size()/4; i++ {
		ring.Network().Crash(simnet.Addr(rng.Intn(ring.Size())))
	}
	keys := make([]ids.Id, 1024)
	for i := range keys {
		keys[i] = ids.Random(rng)
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ring.ClosestLive(keys[i%len(keys)]) == nil {
				b.Fatal("no live node")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if closestLiveScan(ring, keys[i%len(keys)]) == nil {
				b.Fatal("no live node")
			}
		}
	})
}

// benchTopo builds a racks×perRack topology for benchmarks (testTopo wants a
// *testing.T).
func benchTopo(tb testing.TB, racks, perRack int) *topology.Topology {
	tb.Helper()
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
		tb.Fatalf("topology: %v", err)
	}
	return tp
}
