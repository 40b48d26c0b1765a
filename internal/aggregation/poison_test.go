package aggregation

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// TestPoisonedBanksChangeNothing holds the push shell and fold list banks to
// their rule: a shell or a list is banked only once nothing reads it. On 512
// servers losing 2 % of their messages — joins, a leave and three rounds, on
// one shard and on two — with every banked shell and fold list poisoned, the
// root's aggregate and every node's counters and bytes sent must stay what
// they are untouched. On two shards a list taken on one shard may be banked
// on the other, by a parent there that drops the last reader.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	const topic = "BW_Demand"
	key := scribe.GroupKey(topic)
	sim.CheckPoisoned(t, []int{1, 2}, func(shards int, p *sim.Poisoner) string {
		engine := sim.NewShardedEngine(3, shards)
		f := newFixtureOn(t, engine, 16, 32, Config{UpdateInterval: time.Minute}, simnet.WithDropRate(0.02))
		for i, m := range f.managers {
			m.Subscribe(topic, nil)
			m.SetLocal(topic, float64(i))
			m.Start()
			m.sc.StartMaintenance(20 * time.Second) // lost joins are retried
		}
		p.RunUntil(engine, 30*time.Second)
		for _, m := range f.managers {
			if !m.sc.IsRoot(key) && !m.sc.Parent(key).IsNil() && m.sc.ChildCount(key) == 0 {
				m.sc.Leave(key)
				break
			}
		}
		p.RunUntil(engine, 3*time.Minute+30*time.Second)
		var out strings.Builder
		for _, m := range f.managers {
			if m.sc.IsRoot(key) {
				root, _ := m.subtreeAggregates(m.topic(key)).get(DefaultAttr)
				if root.Count == 0 {
					t.Fatal("the root folded nothing")
				}
				fmt.Fprintf(&out, "root %+v\n", root)
			}
		}
		for a, c := range f.ring.Network().AllCounters() {
			fmt.Fprintf(&out, "node %d: %+v\n", a, c)
		}
		return out.String()
	})
}
