package aggregation

import (
	"testing"
	"time"

	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// TestPoisonedBanksChangeNothing holds the push shell lists to their rule: a
// shell is banked only once nothing reads it. Every shell on every engine's
// list is overwritten with sentinels after every event of a 512-server run
// that loses 2 % of its messages — joins, a leave and three rounds — on one
// shard and on two, and the run must compute what it computes unpoisoned:
// the root's aggregate, every node's counters and bytes sent.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	const topic = "BW_Demand"
	key := scribe.GroupKey(topic)
	run := func(engine *sim.Engine, poison bool) ([]simnet.Counters, Aggregate, int) {
		f := newFixtureOn(t, engine, 16, 32, Config{UpdateInterval: time.Minute}, simnet.WithDropRate(0.02))
		for i, m := range f.managers {
			m.Subscribe(topic, nil)
			m.SetLocal(topic, float64(i))
			m.Start()
			m.sc.StartMaintenance(20 * time.Second) // lost joins are retried
		}
		poisoned := 0
		runUntil := func(at time.Duration) {
			for engine.Now() < at && engine.Step() {
				for i := 0; poison && i < engine.ShardCount(); i++ {
					poisoned += poisonBankedShells(engine.Shard(i))
				}
			}
		}
		runUntil(30 * time.Second)
		for _, m := range f.managers {
			if !m.sc.IsRoot(key) && !m.sc.Parent(key).IsNil() && m.sc.ChildCount(key) == 0 {
				m.sc.Leave(key)
				break
			}
		}
		runUntil(3*time.Minute + 30*time.Second)
		var root Aggregate
		for _, m := range f.managers {
			if m.sc.IsRoot(key) {
				root, _ = m.subtreeAggregates(m.topic(key)).get(DefaultAttr)
			}
		}
		if root.Count == 0 {
			t.Fatal("the root folded nothing")
		}
		return f.ring.Network().AllCounters(), root, poisoned
	}
	for _, shards := range []int{1, 2} {
		wantCounters, wantRoot, _ := run(sim.NewShardedEngine(3, shards), false)
		gotCounters, gotRoot, poisoned := run(sim.NewShardedEngine(3, shards), true)
		t.Logf("%d shard(s): %d shells poisoned, root %+v", shards, poisoned, gotRoot)
		if poisoned == 0 {
			t.Fatalf("%d shard(s): no shell was ever banked", shards)
		}
		if gotRoot != wantRoot {
			t.Errorf("%d shard(s): the root folded %+v poisoned, %+v not", shards, gotRoot, wantRoot)
		}
		for a := range wantCounters {
			if gotCounters[a] != wantCounters[a] {
				t.Errorf("%d shard(s): node %d counted %+v poisoned, %+v not", shards, a, gotCounters[a], wantCounters[a])
				break
			}
		}
	}
}
