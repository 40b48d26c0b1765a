package aggregation

import (
	"testing"
	"time"

	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// TestPoisonedBanksChangeNothing holds the push shell and fold list banks to
// their rule: a shell or a list is banked only once nothing reads it. Every
// shell and every fold list on every engine's banks is overwritten with
// sentinels after every event of a 512-server run that loses 2 % of its
// messages — joins, a leave and three rounds — on one shard and on two, and
// the run must compute what it computes unpoisoned: the root's aggregate,
// every node's counters and bytes sent. On two shards a list taken on one
// shard may be banked on the other, by a parent there that drops the last
// reader.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	const topic = "BW_Demand"
	key := scribe.GroupKey(topic)
	run := func(engine *sim.Engine, poison bool) ([]simnet.Counters, Aggregate, int, int) {
		f := newFixtureOn(t, engine, 16, 32, Config{UpdateInterval: time.Minute}, simnet.WithDropRate(0.02))
		for i, m := range f.managers {
			m.Subscribe(topic, nil)
			m.SetLocal(topic, float64(i))
			m.Start()
			m.sc.StartMaintenance(20 * time.Second) // lost joins are retried
		}
		shells, folds := 0, 0
		runUntil := func(at time.Duration) {
			for engine.Now() < at && engine.Step() {
				for i := 0; poison && i < engine.ShardCount(); i++ {
					s, l := poisonBanks(engine.Shard(i))
					shells, folds = shells+s, folds+l
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
		return f.ring.Network().AllCounters(), root, shells, folds
	}
	for _, shards := range []int{1, 2} {
		wantCounters, wantRoot, _, _ := run(sim.NewShardedEngine(3, shards), false)
		gotCounters, gotRoot, shells, folds := run(sim.NewShardedEngine(3, shards), true)
		t.Logf("%d shard(s): %d shells and %d fold lists poisoned, root %+v", shards, shells, folds, gotRoot)
		if shells == 0 || folds == 0 {
			t.Fatalf("%d shard(s): %d shells and %d fold lists were ever banked, want some of each", shards, shells, folds)
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
