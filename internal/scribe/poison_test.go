package scribe_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// shuffleRun drives the shuffle on a 256-server stack losing 2 % of its
// messages, one event at a time: a skewed load, twenty minutes of one-minute
// aggregation rounds and five-minute shed rounds (receivers join and leave
// the Less-Loaded tree, shedders any-cast it, verdicts are lost and
// retried), then two minutes with the services off. poison, when set, runs
// on every engine after every event. It returns what the run computed, as
// text: every node's any-cast counters, the migrations, every server's VMs
// and every node's traffic counters, and how many records poison reported.
func shuffleRun(t *testing.T, shards int, poison func(*sim.Engine) int) (string, int) {
	t.Helper()
	vb, err := core.New(core.Options{
		Topology: topology.Spec{
			Racks: 8, ServersPerRack: 32, RacksPerPod: 4, NICMbps: 1000, Oversubscription: 8,
			LANHop: 10 * time.Millisecond, LocalDelivery: 50 * time.Microsecond,
		},
		Seed:        5,
		MessageLoss: 0.02,
		Shards:      shards,
		Rebalance: rebalance.Config{
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
			LeaseDuration:     30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	for s := 0; s < vb.Cluster.Size(); s++ {
		perVM := (0.62 + (rng.Float64()*2-1)*0.47) * vb.Cluster.Server(s).Capacity.BandwidthMbps / 10
		for v := 0; v < 10; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				t.Fatal(err)
			}
			vm.Demand.BandwidthMbps = max(perVM, 1)
			if err := vb.Cluster.Place(vm, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine := vb.Engine
	poisoned := 0
	runUntil := func(at time.Duration) {
		for engine.Now() < at && engine.Step() {
			for i := 0; poison != nil && i < engine.ShardCount(); i++ {
				poisoned += poison(engine.Shard(i))
			}
		}
	}
	vb.StartServices()
	runUntil(20 * time.Minute)
	vb.StopServices()
	runUntil(22 * time.Minute)

	var out strings.Builder
	retried, orphans := 0, 0
	for i, s := range vb.Scribes {
		r, o := s.AnycastStats()
		retried, orphans = retried+r, orphans+o
		fmt.Fprintf(&out, "node %d: retried %d orphans %d in tree %v\n", i, r, o, s.InTree(scribe.GroupKey(rebalance.LessLoadedGroup)))
	}
	fmt.Fprintf(&out, "migrations %+v\nholds %+v\n", vb.Migration.Stats(), vb.Rebalancer.ReserveStats())
	for s, srv := range vb.Cluster.Servers() {
		fmt.Fprintf(&out, "server %d:", s)
		for _, vm := range srv.VMs() {
			fmt.Fprintf(&out, " %d", vm.ID)
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "traffic %v\n", vb.Ring.Network().AllCounters())
	if vb.Migration.Stats().Completed == 0 || retried == 0 {
		t.Fatalf("the shuffle moved %d VMs and retried %d any-casts; want both", vb.Migration.Stats().Completed, retried)
	}
	return out.String(), poisoned
}

// TestPoisonedBanksChangeNothing holds the any-cast's banks to their rule: a
// record is banked only once nothing reads it. Every any-cast and verdict
// shell, wheel timer and pruned group state banked on every engine is
// overwritten with garbage after every event of a lossy shuffle, on one
// shard and on two, and the run must compute what it computes unpoisoned.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		want, _ := shuffleRun(t, shards, nil)
		got, poisoned := shuffleRun(t, shards, scribe.PoisonBanked)
		t.Logf("%d shard(s): %d records poisoned", shards, poisoned)
		if poisoned == 0 {
			t.Fatalf("%d shard(s): no record was ever banked", shards)
		}
		if got != want {
			t.Errorf("%d shard(s): the poisoned run computed\n%s\nthe untouched one\n%s", shards, got, want)
		}
	}
}
