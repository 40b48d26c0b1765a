// Multi-resource demo: the paper's §VII extension — "improving the
// decentralized resource shuffling algorithm by considering multiple
// metrics like CPU, memory, and bandwidth" — in action. One server is
// CPU-bound with almost no network traffic, another is bandwidth-bound
// with idle CPUs; the multi-metric rebalancer recognizes both as shedders
// (each on a different axis) and resolves both imbalances through the same
// Less-Loaded any-cast tree.
//
// Run with:
//
//	go run ./examples/multiresource
package main

import (
	"fmt"
	"log"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/topology"
)

func main() {
	vb, err := core.New(core.Options{
		Topology: topology.Spec{
			Racks:            2,
			ServersPerRack:   4,
			RacksPerPod:      2,
			NICMbps:          1000,
			Oversubscription: 8,
			LANHop:           time.Millisecond,
			LocalDelivery:    50 * time.Microsecond,
		},
		Rebalance: rebalance.Config{
			Threshold:         0.1,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
			Kinds:             []cluster.Kind{cluster.KindBandwidth, cluster.KindCPU, cluster.KindMemory},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	place := func(server int, n int, demand cluster.Resources) {
		for i := 0; i < n; i++ {
			vm, err := vb.Cluster.CreateVM("tenant",
				cluster.Resources{CPU: 0.25, MemMB: 64, BandwidthMbps: 10},
				cluster.Resources{CPU: 8, MemMB: 4096, BandwidthMbps: 1000})
			if err != nil {
				log.Fatal(err)
			}
			if err := vb.Cluster.Place(vm, server); err != nil {
				log.Fatal(err)
			}
			vm.Demand = demand
		}
	}
	// Server 0: CPU-bound, network idle. Server 1: network-bound, CPU idle.
	place(0, 7, cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 5})
	place(1, 6, cluster.Resources{CPU: 0.2, MemMB: 256, BandwidthMbps: 150})
	// Servers 2-3: mid load on both axes. Servers 4-7: cool receivers.
	for s := 2; s <= 3; s++ {
		place(s, 4, cluster.Resources{CPU: 1.6, MemMB: 512, BandwidthMbps: 90})
	}
	for s := 4; s < 8; s++ {
		place(s, 3, cluster.Resources{CPU: 0.3, MemMB: 128, BandwidthMbps: 15})
	}

	show := func(label string) {
		fmt.Println(label)
		fmt.Printf("  %-8s %-12s %-12s %-10s\n", "server", "cpu util", "bw util", "role")
		for s := 0; s < vb.Cluster.Size(); s++ {
			srv := vb.Cluster.Server(s)
			fmt.Printf("  %-8d %-12.2f %-12.2f %-10s\n", s,
				srv.UtilizationOf(cluster.KindCPU),
				srv.UtilizationOf(cluster.KindBandwidth),
				vb.Rebalancer.Agent(s).Role())
		}
	}

	vb.StartServices()
	vb.RunFor(3 * time.Minute) // roles settle
	show("after self-identification (note the two shedders, hot on different axes):")
	vb.RunFor(40 * time.Minute)
	vb.StopServices()
	fmt.Println()
	show(fmt.Sprintf("after rebalancing (%d migrations):", vb.Migration.Stats().Completed))
}
