package rebalance

import (
	"testing"
	"time"

	"vbundle/internal/cluster"
)

// bundleVM creates a VM for a named customer with a real reservation (the
// bundle semantics trade against purchased-but-unused reservations).
func bundleVM(t *testing.T, w *world, customer string, server int, rsvMbps, demandMbps float64) *cluster.VM {
	t.Helper()
	vm, err := w.cl.CreateVM(customer,
		cluster.Resources{CPU: 0.25, MemMB: 128, BandwidthMbps: rsvMbps},
		cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cl.Place(vm, server); err != nil {
		t.Fatal(err)
	}
	w.cl.SetDemandBW(vm, demandMbps)
	return vm
}

func TestSameCustomerOnlyMovesToOwnBundle(t *testing.T) {
	cfg := fastCfg(0.1)
	cfg.SameCustomerOnly = true
	w := build(t, 2, 4, cfg)
	// Customer "alice": hot on server 0 (demand over NIC), idle purchased
	// capacity on servers 1 and 2 (200 Mbps reserved, 10 used).
	for v := 0; v < 6; v++ {
		bundleVM(t, w, "alice", 0, 100, 180)
	}
	for s := 1; s <= 2; s++ {
		for v := 0; v < 2; v++ {
			bundleVM(t, w, "alice", s, 100, 10)
		}
	}
	// Customer "bob": totally idle servers 3-7 — attractive destinations
	// that the bundle rule must refuse.
	for s := 3; s < w.cl.Size(); s++ {
		bundleVM(t, w, "bob", s, 100, 10)
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	w.coord.Stop()
	w.engine.Run()

	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("no migrations despite in-bundle slack")
	}
	// Every alice VM must sit on a server hosting alice VMs from the
	// start (servers 0, 1, 2).
	for _, vm := range w.cl.VMsOf("alice") {
		loc, _ := w.cl.LocationOf(vm.ID)
		if loc > 2 {
			t.Errorf("alice VM %d migrated to bob-only server %d", vm.ID, loc)
		}
	}
}

func TestSameCustomerOnlyRefusesWhenNoBundleSlack(t *testing.T) {
	cfg := fastCfg(0.1)
	cfg.SameCustomerOnly = true
	w := build(t, 2, 4, cfg)
	// Hot customer has no presence anywhere else; other servers belong to
	// a different customer with plenty of raw capacity.
	for v := 0; v < 6; v++ {
		bundleVM(t, w, "alice", 0, 100, 180)
	}
	for s := 1; s < w.cl.Size(); s++ {
		bundleVM(t, w, "bob", s, 100, 10)
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if got := w.coord.MigrationsTriggered(); got != 0 {
		t.Fatalf("bundle rule breached: %d migrations", got)
	}
}

func TestClusterScopeIgnoresCustomers(t *testing.T) {
	// Default (cluster-wide) mode happily uses bob's servers.
	w := build(t, 2, 4, fastCfg(0.1))
	for v := 0; v < 6; v++ {
		bundleVM(t, w, "alice", 0, 100, 180)
	}
	for s := 1; s < w.cl.Size(); s++ {
		bundleVM(t, w, "bob", s, 100, 10)
	}
	w.coord.Start()
	w.engine.RunFor(40 * time.Minute)
	w.coord.Stop()
	w.engine.Run()
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("cluster scope did not migrate")
	}
}
