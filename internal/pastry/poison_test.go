package pastry_test

import (
	"testing"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/core"
	"vbundle/internal/pastry"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// poisonRun drives a 512-server stack losing 2 % of its messages one event
// at a time: every server joins one aggregation tree, a leaf leaves it, and
// three rounds climb it. poison, when set, runs on every engine after every
// event. It returns every node's traffic counters, what the root published
// and how many banked husks poison reported.
func poisonRun(t *testing.T, shards int, poison func(*sim.Engine) int) ([]simnet.Counters, aggregation.Global, int) {
	t.Helper()
	ov, err := core.NewOverlay(core.Options{
		Topology: topology.Spec{
			Racks: 16, ServersPerRack: 32, RacksPerPod: 4, NICMbps: 1000, Oversubscription: 8,
			LANHop: 10 * time.Millisecond, LocalDelivery: 50 * time.Microsecond,
		},
		Seed:        3,
		MessageLoss: 0.02,
		Shards:      shards,
		Rebalance:   rebalance.Config{UpdateInterval: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	const topic = "BW_Demand"
	key := scribe.GroupKey(topic)
	engine := ov.Engine
	for i, m := range ov.Aggs {
		m.Subscribe(topic, nil)
		m.SetLocal(topic, float64(i))
		m.Start()
	}
	for _, s := range ov.Scribes {
		s.StartMaintenance(20 * time.Second) // lost joins are retried
	}
	poisoned := 0
	runUntil := func(at time.Duration) {
		for engine.Now() < at && engine.Step() {
			if poison != nil {
				for i := 0; i < engine.ShardCount(); i++ {
					poisoned += poison(engine.Shard(i))
				}
			}
		}
	}
	runUntil(30 * time.Second)
	for _, s := range ov.Scribes {
		if !s.IsRoot(key) && !s.Parent(key).IsNil() && s.ChildCount(key) == 0 {
			s.Leave(key)
			break
		}
	}
	runUntil(3*time.Minute + 30*time.Second)
	counters := ov.Ring.Network().AllCounters()
	var root aggregation.Global
	for _, m := range ov.Aggs {
		if m.Scribe().IsRoot(key) {
			m.PublishNow(topic)
			root, _ = m.Global(topic)
		}
	}
	if root.Count == 0 {
		t.Fatal("the root published nothing")
	}
	return counters, root, poisoned
}

// TestPoisonedBanksChangeNothing holds the envelope pools to their rule: a
// husk is banked only once nothing reads it. Every envelope and direct
// envelope on every engine's pool is overwritten with sentinels after every
// event, through joins, a leave and three lossy rounds, on one shard and on
// two, and the run must compute what it computes unpoisoned: the root's
// aggregate, every node's counters and bytes sent.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		wantCounters, wantRoot, _ := poisonRun(t, shards, nil)
		gotCounters, gotRoot, poisoned := poisonRun(t, shards, pastry.PoisonBanked)
		t.Logf("%d shard(s): %d husks poisoned, root %+v", shards, poisoned, gotRoot)
		if poisoned == 0 {
			t.Fatalf("%d shard(s): no husk was ever banked", shards)
		}
		if gotRoot != wantRoot {
			t.Errorf("%d shard(s): the root published %+v poisoned, %+v not", shards, gotRoot, wantRoot)
		}
		for a := range wantCounters {
			if gotCounters[a] != wantCounters[a] {
				t.Errorf("%d shard(s): node %d counted %+v poisoned, %+v not", shards, a, gotCounters[a], wantCounters[a])
				break
			}
		}
	}
}
