package rebalance_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// The paper's §III.C running example on the real protocol stack. Seven
// servers host one customer's 42 VM instances with bandwidth as the
// bottleneck; aggregation trees compute the 60% average-utilization line,
// servers self-identify as shedders or receivers, and the Less-Loaded
// any-cast tree moves VMs until every server sits inside the target band.
func Example() {
	const threshold = 0.183
	vb, err := core.New(core.Options{
		Topology: topology.Spec{
			Racks:            1,
			ServersPerRack:   7,
			NICMbps:          1000,
			Oversubscription: 8,
			LANHop:           time.Millisecond,
			LocalDelivery:    50 * time.Microsecond,
		},
		Rebalance: rebalance.Config{
			Threshold:         threshold,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 42 instances over 7 servers; each consumes 10% of a server's
	// bandwidth (the paper's example numbers), but they are booted
	// unevenly: three servers are saturated, the rest lightly loaded.
	// Total demand: 42 × 100 Mbps over 7 Gbps capacity = the paper's 60%
	// average line.
	perServer := []int{10, 9, 9, 5, 4, 3, 2} // sums to 42
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 50}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 1000}
	for server, count := range perServer {
		for v := 0; v < count; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				log.Fatal(err)
			}
			if err := vb.Cluster.Place(vm, server); err != nil {
				log.Fatal(err)
			}
			vb.Workloads.Attach(vm.ID, workload.Flat(100))
		}
	}
	vb.Workloads.Start(time.Minute)
	vb.RunFor(time.Second)

	show := func(label string) {
		fmt.Println(label)
		mean := vb.Cluster.MeanUtilizationBW()
		fmt.Printf("  average line %.0f%%, shed above %.0f%%\n", mean*100, (mean+threshold)*100)
		for s, u := range vb.UtilizationSnapshot() {
			role := ""
			switch {
			case u > mean+threshold:
				role = " <- load shedder"
			case u < mean-threshold:
				role = " <- load receiver"
			}
			fmt.Printf("  server %d: %3.0f%% %s%s\n", s, u*100, strings.Repeat("#", min(int(u*20), 24)), role)
		}
	}

	show("before rebalancing (paper Fig. 5):")
	vb.StartServices()
	vb.RunFor(30 * time.Minute)
	vb.StopServices()
	vb.Workloads.Stop()
	fmt.Println()
	show(fmt.Sprintf("after rebalancing (%d migrations, %d any-cast queries):",
		vb.Migration.Stats().Completed, vb.Rebalancer.QueriesSent()))

	// Output:
	// before rebalancing (paper Fig. 5):
	//   average line 60%, shed above 78%
	//   server 0: 100% #################### <- load shedder
	//   server 1:  90% ################## <- load shedder
	//   server 2:  90% ################## <- load shedder
	//   server 3:  50% ##########
	//   server 4:  40% ######## <- load receiver
	//   server 5:  30% ###### <- load receiver
	//   server 6:  20% #### <- load receiver
	//
	// after rebalancing (7 migrations, 7 any-cast queries):
	//   average line 60%, shed above 78%
	//   server 0:  70% ##############
	//   server 1:  70% ##############
	//   server 2:  70% ##############
	//   server 3:  50% ##########
	//   server 4:  50% ##########
	//   server 5:  50% ##########
	//   server 6:  60% ############
}
