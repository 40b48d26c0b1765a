package core

import (
	"fmt"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/costbenefit"
	"vbundle/internal/rebalance"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/workload"
)

// TestDayInTheLife drives the whole stack through a realistic day: five
// customers boot bundles through DHT placement, workloads swing on
// staggered cycles, VMs come and go, the rebalancer (multi-metric +
// cost-benefit) shuffles continuously, and every invariant the system
// promises must hold at every sample point.
func TestDayInTheLife(t *testing.T) {
	vb, err := New(Options{
		Topology: smallSpec(8, 6), // 48 servers
		Seed:     77,
		Rebalance: rebalance.Config{
			Threshold:         0.15,
			UpdateInterval:    5 * time.Minute,
			RebalanceInterval: 20 * time.Minute,
			Kinds:             []cluster.Kind{cluster.KindBandwidth, cluster.KindCPU},
			CostBenefit:       &costbenefit.Config{Horizon: 20 * time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := vb.Engine.Rand()

	customers := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	var all []*cluster.VM
	for ci, customer := range customers {
		for v := 0; v < 25; v++ {
			vm, _, err := vb.BootVM(customer,
				cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 25},
				cluster.Resources{CPU: 4, MemMB: 512, BandwidthMbps: 800})
			if err != nil {
				t.Fatalf("boot %s #%d: %v", customer, v, err)
			}
			all = append(all, vm)
			// Staggered daily cycles: each customer peaks at a different
			// time, the workload variation v-Bundle monetizes.
			vb.Workloads.Attach(vm.ID, workload.Sine(
				60, 55, 4*time.Hour, float64(ci)*1.3+rng.Float64()*0.3))
		}
	}

	initialQ := vb.PlacementQuality()
	if frac := initialQ.SameRackPairFraction(); frac < 0.8 {
		t.Fatalf("initial placement locality %.3f", frac)
	}

	vb.Workloads.Start(5 * time.Minute)
	vb.StartServices()

	var worstSD, sumSat, sumDem float64
	for hour := 0; hour < 24; hour++ {
		vb.RunFor(time.Hour)
		// Invariant 1: reservations never overcommitted anywhere.
		for s := 0; s < vb.Cluster.Size(); s++ {
			srv := vb.Cluster.Server(s)
			if srv.ReservedBW() > srv.Capacity.BandwidthMbps+1e-9 {
				t.Fatalf("hour %d: server %d reservations %.0f over capacity", hour, s, srv.ReservedBW())
			}
		}
		// Invariant 2: every VM is placed exactly once.
		seen := make(map[cluster.VMID]int)
		for s := 0; s < vb.Cluster.Size(); s++ {
			for _, vm := range vb.Cluster.Server(s).VMs() {
				seen[vm.ID]++
			}
		}
		for _, vm := range all {
			if seen[vm.ID] != 1 {
				t.Fatalf("hour %d: vm %d appears %d times", hour, vm.ID, seen[vm.ID])
			}
		}
		// Invariant 3: the shaper never over-delivers.
		rep := vb.BandwidthSatisfaction()
		if rep.SatisfiedMbps > rep.DemandMbps+1e-6 {
			t.Fatalf("hour %d: satisfied %.0f > demand %.0f", hour, rep.SatisfiedMbps, rep.DemandMbps)
		}
		sumSat += rep.SatisfiedMbps
		sumDem += rep.DemandMbps
		if sd := vb.UtilizationStdDev(); sd > worstSD {
			worstSD = sd
		}
	}
	vb.StopServices()
	vb.Workloads.Stop()

	// Over the day the system should deliver nearly all demanded bandwidth.
	if ratio := sumSat / sumDem; ratio < 0.95 {
		t.Errorf("day-long satisfaction ratio %.3f, want >= 0.95", ratio)
	}
	if vb.Migration.Stats().Completed == 0 {
		t.Error("a full day of swinging load produced no migrations")
	}
	t.Logf("day summary: %d migrations, %d queries, %d cost vetoes, worst SD %.3f, satisfaction %.3f",
		vb.Migration.Stats().Completed, vb.Rebalancer.QueriesSent(),
		vb.Rebalancer.VetoedByCost(), worstSD, sumSat/sumDem)
}

// TestManyTenantsIsolation verifies that same-customer bundle mode keeps
// tenants' VMs on their own footprints over a long mixed run.
func TestManyTenantsIsolation(t *testing.T) {
	vb, err := New(Options{
		Topology: smallSpec(4, 4),
		Seed:     5,
		Rebalance: rebalance.Config{
			Threshold:         0.1,
			UpdateInterval:    2 * time.Minute,
			RebalanceInterval: 10 * time.Minute,
			SameCustomerOnly:  true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two tenants, interleaved footprints; record initial footprints.
	footprint := map[string]map[int]bool{"x": {}, "y": {}}
	for tenant := range footprint {
		for v := 0; v < 20; v++ {
			vm, res, err := vb.BootVM(tenant,
				cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 50},
				cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 1000})
			if err != nil {
				t.Fatal(err)
			}
			footprint[tenant][res.Server] = true
			phase := 0.0
			if tenant == "y" {
				phase = 3.14
			}
			vb.Workloads.Attach(vm.ID, workload.Sine(80, 70, 2*time.Hour, phase))
		}
	}
	vb.Workloads.Start(2 * time.Minute)
	vb.StartServices()
	vb.RunFor(6 * time.Hour)
	vb.StopServices()
	vb.Workloads.Stop()

	for tenant, servers := range footprint {
		for _, vm := range vb.Cluster.VMsOf(tenant) {
			loc, _ := vb.Cluster.LocationOf(vm.ID)
			if !servers[loc] {
				t.Errorf("tenant %s vm %d ended on server %d outside its bundle footprint %v",
					tenant, vm.ID, loc, keys(servers))
			}
		}
	}
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestConcurrentJoinsConverge crashes every fourth node and restarts them
// all at one instant through core's restarter: each rebuilt node rejoins from
// its checkpoint while its fellow victims rejoin beside it. Every victim
// comes back knowing peers, and boots still route.
func TestConcurrentJoinsConverge(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(3, 8), Store: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	net := vb.Ring.Network()
	var victims []simnet.Addr
	for i := 0; i < vb.Ring.Size(); i += 4 {
		victims = append(victims, simnet.Addr(i))
		net.Crash(simnet.Addr(i))
	}
	vb.Engine.AtGlobal(vb.Now()+time.Second, func() {
		for _, a := range victims {
			net.Restart(a)
		}
	})
	vb.RunFor(2 * time.Second)
	if vb.Recovery.Restarts != len(victims) {
		t.Fatalf("Recovery.Restarts = %d, want %d", vb.Recovery.Restarts, len(victims))
	}
	for _, a := range victims {
		if !net.Alive(a) || len(vb.Ring.Node(int(a)).Peers()) == 0 {
			t.Fatalf("victim %d did not rejoin: alive %v, %d peers", a, net.Alive(a), len(vb.Ring.Node(int(a)).Peers()))
		}
	}
	// Routing works end to end after the storm.
	for i := 0; i < 10; i++ {
		if _, _, err := vb.BootVM(fmt.Sprintf("c%d", i),
			cluster.Resources{BandwidthMbps: 10}, cluster.Resources{BandwidthMbps: 20}); err != nil {
			t.Fatalf("boot after join storm: %v", err)
		}
	}
}
