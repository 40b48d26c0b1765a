package aggregation_test

import (
	"fmt"
	"log"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/topology"
)

// Use v-Bundle's cross-hypervisor aggregation abstraction (§III.D)
// directly. Every server stores local (topic, value) tuples and subscribes
// to per-topic Scribe trees over the Pastry overlay; the trees reduce the
// values to the root and disseminate the global result back, so every
// server learns cluster-wide statistics without any central manager.
func Example() {
	// 64 servers in 8 racks; 10 ms per switch level, as measured in §V.C.
	// The overlay-only stack: no cluster, placement or rebalancer above it.
	ov, err := core.NewOverlay(core.Options{
		Topology: topology.Spec{
			Racks:            8,
			ServersPerRack:   8,
			RacksPerPod:      4,
			NICMbps:          1000,
			Oversubscription: 8,
			LANHop:           10 * time.Millisecond,
			LocalDelivery:    50 * time.Microsecond,
		},
		Seed:      42,
		Rebalance: rebalance.Config{UpdateInterval: 30 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	engine, ring, managers := ov.Engine, ov.Ring, ov.Aggs

	// Every server subscribes to the two v-Bundle topics and publishes its
	// local capacity and demand (demand grows with the server index to make
	// the statistics interesting).
	for i, m := range managers {
		m.Subscribe("BW_Capacity", nil)
		m.Subscribe("BW_Demand", nil)
		m.SetLocal("BW_Capacity", 1000)
		m.SetLocal("BW_Demand", float64(10*(i+1)))
	}
	engine.Run() // trees build, reductions cascade to the roots

	// Roots disseminate on their update interval.
	for _, m := range managers {
		m.PublishNow("BW_Capacity")
		m.PublishNow("BW_Demand")
	}
	engine.Run()

	// Every server now holds the same global view.
	d, _ := managers[0].Global("BW_Demand")
	c, _ := managers[0].Global("BW_Capacity")
	fmt.Printf("cluster of %d servers, fully decentralized statistics:\n", ring.Size())
	fmt.Printf("  total demand    : %6.0f Mbps (true value %d)\n", d.Sum, 10*65*64/2)
	fmt.Printf("  total capacity  : %6.0f Mbps\n", c.Sum)
	fmt.Printf("  demand min/max  : %.0f / %.0f Mbps\n", d.Min, d.Max)
	fmt.Printf("  mean utilization: %.4f  <- every server's shedder/receiver baseline\n", d.Sum/c.Sum)

	agree := 0
	for _, m := range managers {
		if g, ok := m.Global("BW_Demand"); ok && g.Sum == d.Sum {
			agree++
		}
	}
	fmt.Printf("  servers agreeing on the global: %d/%d\n", agree, len(managers))

	// Multi-attribute topics (§III.D): one tree can carry several
	// attributes, like the paper's (configuration, numCPUs, 16) example.
	for _, m := range managers {
		m.SubscribeAttr("configuration", "numCPUs", nil)
		m.SetLocalAttr("configuration", "numCPUs", 16)
		m.SetLocalAttr("configuration", "memGB", 16)
	}
	engine.Run()
	for _, m := range managers {
		m.PublishNow("configuration")
	}
	engine.Run()
	if cpus, ok := managers[0].GlobalAttr("configuration", "numCPUs"); ok {
		fmt.Printf("  (configuration, numCPUs): %d servers × %g cores = %g total\n",
			cpus.Count, cpus.Sum/float64(cpus.Count), cpus.Sum)
	}

	// Latency probes: how long a fresh leaf update takes to reach the root
	// (the paper's Fig. 14 measurement).
	for _, m := range managers {
		m.SetLocal("BW_Demand", 500)
	}
	engine.Run()
	var worst, sum time.Duration
	var n int
	for _, m := range managers {
		for _, lat := range m.RootLatencies() {
			n++
			sum += lat
			worst = max(worst, lat)
		}
	}
	fmt.Printf("  leaf-to-root aggregation latency: mean %v, worst %v over %d reductions\n",
		(sum / time.Duration(max(n, 1))).Round(time.Millisecond), worst.Round(time.Millisecond), n)

	// Output:
	// cluster of 64 servers, fully decentralized statistics:
	//   total demand    :  20800 Mbps (true value 20800)
	//   total capacity  :  64000 Mbps
	//   demand min/max  : 10 / 640 Mbps
	//   mean utilization: 0.3250  <- every server's shedder/receiver baseline
	//   servers agreeing on the global: 64/64
	//   (configuration, numCPUs): 64 servers × 16 cores = 1024 total
	//   leaf-to-root aggregation latency: mean 173ms, worst 295ms over 20 reductions
}
