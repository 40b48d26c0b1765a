package pastry_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// TestPoisonedBanksChangeNothing holds the envelope pools to their rule: a
// husk is banked only once nothing reads it. On a 512-server stack losing 2 %
// of its messages every server joins one aggregation tree, a leaf leaves it
// and three rounds climb it, on one shard and on two; with every banked
// envelope poisoned, the root's aggregate and every node's counters and
// bytes sent must stay what they are untouched.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	sim.CheckPoisoned(t, []int{1, 2}, func(shards int, p *sim.Poisoner) string {
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
		for i, m := range ov.Aggs {
			m.Subscribe(topic, nil)
			m.SetLocal(topic, float64(i))
			m.Start()
		}
		for _, s := range ov.Scribes {
			s.StartMaintenance(20 * time.Second) // lost joins are retried
		}
		p.RunUntil(ov.Engine, 30*time.Second)
		for _, s := range ov.Scribes {
			if !s.IsRoot(key) && !s.Parent(key).IsNil() && s.ChildCount(key) == 0 {
				s.Leave(key)
				break
			}
		}
		p.RunUntil(ov.Engine, 3*time.Minute+30*time.Second)
		var out strings.Builder
		for _, m := range ov.Aggs {
			if m.Scribe().IsRoot(key) {
				m.PublishNow(topic)
				root, _ := m.Global(topic)
				if root.Count == 0 {
					t.Fatal("the root published nothing")
				}
				fmt.Fprintf(&out, "root %+v\n", root)
			}
		}
		for a, c := range ov.Ring.Network().AllCounters() {
			fmt.Fprintf(&out, "node %d: %+v\n", a, c)
		}
		return out.String()
	})
}
