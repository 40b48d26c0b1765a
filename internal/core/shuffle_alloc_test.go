package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/rebalance"
)

// TestShuffleRoundAllocatesPerMigration is the allocation gate of the
// shuffle: on a warm 1024-server stack whose load is skewed afresh before
// every round as the paper skews it, three rebalance rounds (any-casts,
// leases, migrations and releases, with the aggregation rounds between them)
// allocate at most ceiling objects a completed migration: 2.20 measured,
// against 46.8 when every step allocated its records and 13.9 while every
// re-fold made a fold list and every shed a load-balance query. Both are
// banked now when their last reader lets go (an orphaned verdict may still
// carry a query after its exchange is over), and what is left grows lists
// that are kept, the network's inboxes among them. A fold list, a shed query or exchange, a release
// chain, a release, ack or renew shell, an any-cast step or verdict, a wheel
// timer, a migration's flight or a group state allocated per use puts it
// over.
func TestShuffleRoundAllocatesPerMigration(t *testing.T) {
	const ceiling = 3.0
	vb, err := New(Options{
		Topology: smallSpec(32, 32),
		Seed:     1,
		Rebalance: rebalance.Config{
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	for s := 0; s < vb.Cluster.Size(); s++ {
		for v := 0; v < 10; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				t.Fatal(err)
			}
			if err := vb.Cluster.Place(vm, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// skew draws every server a utilization from the paper's 0.15–1.1 and
	// spreads it over the VMs it hosts now, so that every round has servers
	// to shed.
	skew := func() {
		for _, srv := range vb.Cluster.Servers() {
			perVM := max(0.62+(rng.Float64()*2-1)*0.47, 0.02) * srv.Capacity.BandwidthMbps / float64(srv.NumVMs())
			for _, vm := range srv.VMs() {
				vb.Cluster.SetDemandBW(vm, perVM)
			}
		}
	}
	round := func() {
		skew()
		vb.RunFor(5 * time.Minute)
	}
	skew()
	vb.StartServices()
	for i := 0; i < 3; i++ {
		round() // the banks reach their peak
	}

	var before, after runtime.MemStats
	moved := vb.Migration.Stats().Completed
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	moved = vb.Migration.Stats().Completed - moved
	if moved < 100 {
		t.Fatalf("three warm rounds moved %d VMs; the gate needs a shuffle that still moves", moved)
	}
	perMigration := float64(after.Mallocs-before.Mallocs) / float64(moved)
	t.Logf("three warm rounds: %d objects, %d migrations: %.2f a migration", after.Mallocs-before.Mallocs, moved, perMigration)
	if perMigration > ceiling {
		t.Fatalf("a warm shuffle allocates %.2f objects a migration; the ceiling is %v", perMigration, ceiling)
	}
}
