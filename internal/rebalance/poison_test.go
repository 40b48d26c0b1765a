package rebalance_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

// TestPoisonedBanksChangeNothing holds the shuffle's banks to their rule: a
// record or shell is banked only once nothing reads it. A 256-server stack
// losing 2 % of its messages, on one shard and on two, shuffles a skewed
// load: twenty minutes of one-minute aggregation rounds and five-minute shed
// rounds, then two minutes with the services off for the releases to drain.
// With every banked shed exchange, shed query, release chain and release
// and ack shell poisoned, the migration and reservation counters, the
// queries sent, every server's VMs and every node's traffic must stay what
// they are untouched.
func TestPoisonedBanksChangeNothing(t *testing.T) {
	sim.CheckPoisoned(t, []int{1, 2}, func(shards int, p *sim.Poisoner) string {
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
		vb.StartServices()
		p.RunUntil(vb.Engine, 20*time.Minute)
		vb.StopServices()
		p.RunUntil(vb.Engine, 22*time.Minute)
		var out strings.Builder
		fmt.Fprintf(&out, "migrations %+v\nholds %+v\nqueries %d triggered %d leaked %d\n",
			vb.Migration.Stats(), vb.Rebalancer.ReserveStats(), vb.Rebalancer.QueriesSent(),
			vb.Rebalancer.MigrationsTriggered(), vb.Rebalancer.LeakedReservations())
		for s, srv := range vb.Cluster.Servers() {
			fmt.Fprintf(&out, "server %d:", s)
			for _, vm := range srv.VMs() {
				fmt.Fprintf(&out, " %d", vm.ID)
			}
			out.WriteByte('\n')
		}
		fmt.Fprintf(&out, "traffic %v\n", vb.Ring.Network().AllCounters())
		if vb.Migration.Stats().Completed == 0 {
			t.Fatal("the shuffle moved nothing")
		}
		return out.String()
	})
}
