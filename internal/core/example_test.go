package core_test

import (
	"fmt"
	"log"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// Build a small v-Bundle cloud, boot a customer's VM bundle through the
// topology-aware DHT placement, overload part of it, and watch the
// decentralized rebalancer borrow bandwidth from the customer's own idle
// instances.
func Example() {
	// A small datacenter: 2 racks × 4 servers, 1 Gbps NICs, 8:1
	// oversubscribed ToR up-links. Small on purpose: the rebalancer
	// reasons against the cluster-mean utilization, so the cluster should
	// be busy enough for that mean to be meaningful (the paper's clusters
	// run around 60%).
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
			Threshold:         0.15,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The customer buys a bundle like Fig. 1's: standard VMs with a
	// 100 Mbps guarantee and high-I/O VMs with 200 Mbps, all allowed to
	// burst to 400 Mbps when their neighbours are idle.
	standard := cluster.Resources{CPU: 1, MemMB: 256, BandwidthMbps: 100}
	highIO := cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200}
	burst := cluster.Resources{CPU: 4, MemMB: 256, BandwidthMbps: 400}

	var vms []*cluster.VM
	for i := 0; i < 12; i++ {
		rsv := standard
		if i%2 == 1 {
			rsv = highIO
		}
		vm, res, err := vb.BootVM("IBM", rsv, burst)
		if err != nil {
			log.Fatal(err)
		}
		vms = append(vms, vm)
		rack := vb.Topo.RackOf(res.Server)
		fmt.Printf("booted %-10s on server %2d (rack %d) after %d query hops\n",
			vm.Name(), res.Server, rack, res.Hops)
	}
	q := vb.PlacementQuality()
	fmt.Printf("\nplacement quality: IBM spans %d rack(s), same-rack chatting fraction %.2f\n\n",
		q.PerCustomer["IBM"].RacksSpanned, q.PerCustomer["IBM"].SameRackPairFraction)

	// Front-end VMs go quiet while back-end VMs spike past their
	// reservations — the dynamic the fixed-size offering wastes.
	for i, vm := range vms {
		if i < 4 {
			vb.Workloads.Attach(vm.ID, workload.Flat(300)) // hot back end
		} else {
			vb.Workloads.Attach(vm.ID, workload.Flat(15)) // idle front end
		}
	}
	vb.Workloads.Start(time.Minute)

	report := func(label string) {
		rep := vb.BandwidthSatisfaction()
		fmt.Printf("%-18s demand=%5.0f Mbps satisfied=%5.0f Mbps (%.0f%%), SD=%.3f, migrations=%d\n",
			label, rep.DemandMbps, rep.SatisfiedMbps,
			100*rep.SatisfiedMbps/rep.DemandMbps, vb.UtilizationStdDev(),
			vb.Migration.Stats().Completed)
	}

	vb.RunFor(time.Minute)
	report("before rebalance:")

	vb.StartServices()
	vb.RunFor(30 * time.Minute)
	vb.StopServices()
	vb.Workloads.Stop()

	report("after rebalance:")
	fmt.Println("\nthe hot VMs borrowed headroom from the customer's own idle instances —")
	fmt.Println("no extra resources were purchased (the v-Bundle pitch).")

	// Output:
	// booted IBM-vm1    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm2    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm3    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm4    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm5    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm6    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm7    on server  2 (rack 0) after 1 query hops
	// booted IBM-vm8    on server  1 (rack 0) after 2 query hops
	// booted IBM-vm9    on server  1 (rack 0) after 2 query hops
	// booted IBM-vm10   on server  1 (rack 0) after 2 query hops
	// booted IBM-vm11   on server  1 (rack 0) after 2 query hops
	// booted IBM-vm12   on server  1 (rack 0) after 2 query hops
	//
	// placement quality: IBM spans 1 rack(s), same-rack chatting fraction 1.00
	//
	// before rebalance:  demand= 1320 Mbps satisfied= 1075 Mbps (81%), SD=0.409, migrations=0
	// after rebalance:   demand= 1320 Mbps satisfied= 1320 Mbps (100%), SD=0.137, migrations=4
	//
	// the hot VMs borrowed headroom from the customer's own idle instances —
	// no extra resources were purchased (the v-Bundle pitch).
}
