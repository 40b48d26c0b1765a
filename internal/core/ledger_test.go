package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/rebalance"
	"vbundle/internal/serve"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// TestLedgerMatchesFullSweep holds BandwidthSatisfaction's ledger and every
// server's cached demand sum to the sweep they replaced (core.FullSweep,
// core.FullDemandOf), bit for bit, after every batch of events of a run that
// changes them every way a run can: migrations of the rebalancer, boots and
// terminates through serve, VMs unplaced and placed again, Flat refreshes
// that rewrite the same value and Bursty ones that do not, and a node that
// crashes and restarts from its store. The agents fill their servers' sums
// from their shards' goroutines, so under -race at Shards 2 it also holds
// the fill-ownership rule; the auditor's demand-ledger check runs beside it.
func TestLedgerMatchesFullSweep(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { ledgerChurn(t, shards) })
	}
}

func ledgerChurn(t *testing.T, shards int) {
	vb, err := core.New(core.Options{
		Topology: topology.Spec{
			Racks:            4,
			ServersPerRack:   8,
			RacksPerPod:      4,
			NICMbps:          1000,
			Oversubscription: 8,
			LANHop:           time.Millisecond,
			LocalDelivery:    10 * time.Microsecond,
		},
		Seed:   3,
		Shards: shards,
		Store:  store.NewMem(),
		Rebalance: rebalance.Config{
			Threshold:         0.1,
			UpdateInterval:    time.Minute,
			RebalanceInterval: 5 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: 1000}

	// A skewed load, demand written before Place; even VMs refresh to the
	// same value, odd ones alternate between two.
	var seeded []*cluster.VM
	for s := 0; s < vb.Cluster.Size(); s++ {
		per := 10 + 140*rng.Float64()
		for v := 0; v < 6; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				t.Fatal(err)
			}
			vm.Demand.BandwidthMbps = per
			if err := vb.Cluster.Place(vm, s); err != nil {
				t.Fatal(err)
			}
			var gen workload.Generator = workload.Flat(per)
			if v%2 == 1 {
				gen = workload.Bursty(per/2, 2*per, 7*time.Minute, 0.5, rng.Float64())
			}
			vb.Workloads.Attach(vm.ID, gen)
			seeded = append(seeded, vm)
		}
	}
	fe, err := serve.New(vb, serve.Config{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	a := vb.AttachAudit(audit.Config{Every: 30 * time.Second})

	bits := math.Float64bits
	check := func(step int) {
		t.Helper()
		if got, want := vb.BandwidthSatisfaction(), core.FullSweep(vb.Cluster); bits(got.SatisfiedMbps) != bits(want.SatisfiedMbps) ||
			bits(got.DemandMbps) != bits(want.DemandMbps) {
			t.Fatalf("step %d: ledger %+v, full sweep %+v", step, got, want)
		}
		util := vb.UtilizationSnapshot()
		for i, srv := range vb.Cluster.Servers() {
			for _, k := range cluster.AllKinds {
				if got, want := srv.DemandOf(k), core.FullDemandOf(srv, k); bits(got) != bits(want) {
					t.Fatalf("step %d: server %d DemandOf(%v) = %v, its VMs sum to %v", step, i, k, got, want)
				}
			}
			if want := core.FullDemandOf(srv, cluster.KindBandwidth) / srv.Capacity.BandwidthMbps; bits(util[i]) != bits(want) {
				t.Fatalf("step %d: server %d utilisation %v, its VMs give %v", step, i, util[i], want)
			}
		}
	}

	vb.Workloads.Start(time.Minute)
	vb.StartMaintenance(30 * time.Second)
	vb.StartServices()
	check(-1)
	const victim = simnet.Addr(5)
	customers := []string{"Accolade", "Bitmap", "Cygnus"}
	var unplaced []*cluster.VM
	moved := 0
	for step := 0; step < 120; step++ {
		customer := customers[rng.Intn(len(customers))]
		switch op := rng.Intn(6); {
		case step == 40:
			vb.Ring.Network().Crash(victim)
			vb.Engine.AtGlobal(vb.Now()+5*time.Minute, func() { vb.Ring.Network().Restart(victim) })
		case op <= 1:
			if _, err := fe.Boot(customer, 1+rng.Intn(3), rsv, lim); err != nil {
				t.Fatal(err)
			}
		case op == 2:
			fe.Terminate(customer)
		case op == 3:
			vm := seeded[rng.Intn(len(seeded))]
			if _, placed := vb.Cluster.LocationOf(vm.ID); placed && !vb.Migration.InFlight(vm.ID) {
				vb.Cluster.Unplace(vm.ID)
				unplaced = append(unplaced, vm)
				moved++
			}
		case op == 4 && len(unplaced) > 0:
			vm := unplaced[0]
			if err := vb.Cluster.Place(vm, rng.Intn(vb.Cluster.Size())); err == nil {
				unplaced = unplaced[1:]
			}
		}
		vb.RunFor(20 * time.Second)
		check(step)
	}
	vb.StopServices()
	vb.StopMaintenance()
	vb.Workloads.Stop()
	vb.RunFor(vb.Rebalancer.Config().LeaseDuration)
	check(120)

	// The run must have made every kind of change it claims to.
	st, mig := fe.Stats(), vb.Migration.Stats()
	t.Logf("%d migrations, %d boots placed, %d terminated, %d unplaced, %d restarts",
		mig.Completed, st.Placed, st.Terminated, moved, vb.Recovery.Restarts)
	if mig.Completed == 0 || st.Placed == 0 || st.Terminated == 0 || moved == 0 || vb.Recovery.Restarts != 1 {
		t.Error("want migrations, placed boots, terminates, unplaced VMs and one restart")
	}
	if a.Violations() != 0 {
		var report strings.Builder
		a.Report(&report)
		t.Errorf("the auditor reported violations:\n%s", report.String())
	}
}
