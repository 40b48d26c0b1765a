package placement

import (
	"fmt"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

func benchWorld(b testing.TB, servers int, perServer cluster.Resources) (*sim.Engine, *cluster.Cluster, *DHT) {
	b.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            (servers + 7) / 8,
		ServersPerRack:   8,
		RacksPerPod:      2,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(1)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	cl := cluster.New(tp, perServer)
	return engine, cl, NewDHT(ring, cl, DHTConfig{})
}

// BenchmarkBootQuerySteadyState measures the boot hot path without a spill —
// query envelope, overlay route, admission at the rendezvous, reply — in its
// steady state: one VM is placed and removed again each iteration, so every
// query resolves against the same empty cluster and is admitted at home (the
// region walk is BenchmarkBootQuerySpillWalk's). Envelope pooling, pre-sized
// walk buffers and the single-timer timeout wheel make the loop nearly
// allocation-free; allocs/op is the figure of merit here, reported so
// regressions show up under -benchmem.
func BenchmarkBootQuerySteadyState(b *testing.B) {
	engine, cl, d := benchWorld(b, 256, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	vm, err := cl.CreateVM("bench", cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100},
		cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200})
	if err != nil {
		b.Fatal(err)
	}
	done := func(r Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	place := func() {
		d.Place(vm, done)
		engine.Run()
	}
	// Warm the pools and the route before measuring.
	place()
	cl.Unplace(vm.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
		cl.Unplace(vm.ID)
	}
}

// BenchmarkBootQueryCached is the same loop with the resolution cache
// attached: after the first routed query every placement skips the overlay
// route and reaches the rendezvous in one direct hop.
func BenchmarkBootQueryCached(b *testing.B) {
	engine, cl, d := benchWorld(b, 256, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	d.SetCache(NewResolutionCache())
	vm, err := cl.CreateVM("bench", cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100},
		cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200})
	if err != nil {
		b.Fatal(err)
	}
	done := func(r Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	place := func() {
		d.Place(vm, done)
		engine.Run()
	}
	place()
	cl.Unplace(vm.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
		cl.Unplace(vm.ID)
	}
}

// BenchmarkBootQuerySpillWalk measures the region walk: every server is full
// but the one standing the given number of spill hops from the rendezvous,
// so each boot walks exactly that far before it is admitted. ns/hop should
// not grow with the walk (one hop costs O(|M| + |L|), whatever came before
// it) and allocs/op should not either (the walk allocates nothing).
func BenchmarkBootQuerySpillWalk(b *testing.B) {
	for _, hops := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			f := newSpillFixture(b, hops)
			f.walk(b) // warm the pools and grow the envelope
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.walk(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
		})
	}
}
