package migration

import (
	"errors"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

func newWorld(t *testing.T) (*sim.Engine, *cluster.Cluster, *Manager) {
	t.Helper()
	tp, err := topology.New(topology.Spec{Racks: 2, ServersPerRack: 2, NICMbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	cl := cluster.New(tp, cluster.Resources{CPU: 16, MemMB: 4096})
	return engine, cl, New(engine, cl)
}

func res(memMB, bwMbps float64) cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: memMB, BandwidthMbps: bwMbps}
}

func TestDurationModel(t *testing.T) {
	// 128 MB at 1000 Mbps: 128*8e6 / 1e9 ≈ 1.024 s, ×1.3 for the pre-copy
	// rounds, plus 60ms downtime.
	if got, want := Duration(128), time.Duration(1.024*1.3*float64(time.Second))+60*time.Millisecond; got != want {
		t.Errorf("Duration(128) = %v, want %v", got, want)
	}
}

func TestMigrateMovesVM(t *testing.T) {
	engine, cl, mgr := newWorld(t)
	vm, _ := cl.CreateVM("a", res(128, 50), res(128, 100))
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	var done error = errSentinel
	if err := mgr.Migrate(vm.ID, 3, func(err error) { done = err }); err != nil {
		t.Fatal(err)
	}
	if !mgr.InFlight(vm.ID) {
		t.Fatal("not marked in flight")
	}
	// VM stays at the source until the migration completes.
	if loc, _ := cl.LocationOf(vm.ID); loc != 0 {
		t.Fatal("VM moved before completion")
	}
	engine.Run()
	if done != nil {
		t.Fatalf("onDone: %v", done)
	}
	if loc, _ := cl.LocationOf(vm.ID); loc != 3 {
		t.Fatalf("VM at %d, want 3", loc)
	}
	st := mgr.Stats()
	if st.Started != 1 || st.Completed != 1 || st.Failed != 0 || st.MovedMemMB != 128 {
		t.Fatalf("stats: %+v", st)
	}
	if mgr.InFlight(vm.ID) {
		t.Fatal("still in flight after completion")
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestMigrateFastFailures(t *testing.T) {
	_, cl, mgr := newWorld(t)
	vm, _ := cl.CreateVM("a", res(128, 50), res(128, 100))
	if err := mgr.Migrate(vm.ID, 1, nil); err == nil {
		t.Fatal("unplaced VM migrated")
	}
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Migrate(vm.ID, 0, nil); err == nil {
		t.Fatal("self-migration accepted")
	}
	if err := mgr.Migrate(cluster.VMID(999), 1, nil); err == nil {
		t.Fatal("unknown VM migrated")
	}
	// Fill destination so it cannot admit.
	for i := 0; i < 8; i++ {
		b, _ := cl.CreateVM("b", res(1, 50), res(1, 50))
		if err := cl.Place(b, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Migrate(vm.ID, 1, nil); err == nil {
		t.Fatal("migration to full server accepted")
	}
	// Double migration rejected while in flight.
	if err := mgr.Migrate(vm.ID, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Migrate(vm.ID, 3, nil); err == nil {
		t.Fatal("concurrent migration accepted")
	}
}

func TestMigrateRaceFailsAtArrival(t *testing.T) {
	engine, cl, mgr := newWorld(t)
	// Two VMs race to the same destination whose capacity fits only one.
	vm1, _ := cl.CreateVM("a", res(128, 250), res(128, 250))
	vm2, _ := cl.CreateVM("a", res(128, 250), res(128, 250))
	if err := cl.Place(vm1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Place(vm2, 1); err != nil {
		t.Fatal(err)
	}
	var errs []error
	if err := mgr.Migrate(vm1.ID, 2, func(err error) { errs = append(errs, err) }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Migrate(vm2.ID, 2, func(err error) { errs = append(errs, err) }); err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if len(errs) != 2 {
		t.Fatalf("%d callbacks", len(errs))
	}
	ok, failed := 0, 0
	for _, err := range errs {
		if err == nil {
			ok++
		} else {
			failed++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want exactly one of each", ok, failed)
	}
	st := mgr.Stats()
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNoAccountingByDefault(t *testing.T) {
	engine, cl, mgr := newWorld(t)
	vm, _ := cl.CreateVM("a", res(512, 50), res(512, 100))
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Migrate(vm.ID, 2, nil); err != nil {
		t.Fatal(err)
	}
	engine.RunFor(time.Second)
	// Mid-transfer: the paper's Fig. 10 ignores that migration itself
	// consumes bandwidth, and so does the model.
	if got, want := cl.Server(0).DemandBW(), vm.EffectiveDemandBW(); got != want {
		t.Fatalf("source demand mid-transfer = %g, want the VM's own %g", got, want)
	}
	if got := cl.Server(2).DemandBW(); got != 0 {
		t.Fatalf("destination demand mid-transfer = %g, want 0", got)
	}
	engine.Run()
}

// deathWorld is newWorld plus a mutable liveness set, standing in for the
// simulated network's Alive.
func deathWorld(t *testing.T) (*sim.Engine, *cluster.Cluster, *Manager, map[int]bool) {
	t.Helper()
	engine, cl, mgr := newWorld(t)
	dead := map[int]bool{}
	mgr.SetLiveness(func(s int) bool { return !dead[s] })
	return engine, cl, mgr, dead
}

func TestMigrateToDeadDestinationFailsFast(t *testing.T) {
	engine, cl, mgr, dead := deathWorld(t)
	vm, _ := cl.CreateVM("a", res(128, 50), res(128, 100))
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	dead[3] = true
	err := mgr.Migrate(vm.ID, 3, nil)
	if !errors.Is(err, ErrDestinationDead) {
		t.Fatalf("err = %v, want ErrDestinationDead", err)
	}
	engine.Run()
	if loc, _ := cl.LocationOf(vm.ID); loc != 0 {
		t.Fatalf("VM at %d, want 0", loc)
	}
	if st := mgr.Stats(); st.Started != 0 {
		t.Fatalf("fast failure counted as started: %+v", st)
	}
}

func TestDestinationDeathMidFlightAborts(t *testing.T) {
	engine, cl, mgr, dead := deathWorld(t)
	vm, _ := cl.CreateVM("a", res(128, 50), res(128, 100))
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	var done error = errSentinel
	if err := mgr.Migrate(vm.ID, 3, func(err error) { done = err }); err != nil {
		t.Fatal(err)
	}
	// The destination crashes while the transfer is running.
	engine.After(100*time.Millisecond, func() { dead[3] = true })
	engine.Run()
	if !errors.Is(done, ErrDestinationDead) {
		t.Fatalf("onDone err = %v, want ErrDestinationDead", done)
	}
	if loc, _ := cl.LocationOf(vm.ID); loc != 0 {
		t.Fatal("VM left its source despite a dead destination")
	}
	if mgr.InFlight(vm.ID) {
		t.Fatal("aborted migration still in flight")
	}
	st := mgr.Stats()
	if st.Failed != 1 || st.FailedDeadDest != 1 || st.Completed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The VM is migratable again once the destination recovers.
	dead[3] = false
	if err := mgr.Migrate(vm.ID, 3, nil); err != nil {
		t.Fatalf("retry after revive: %v", err)
	}
	engine.Run()
	if loc, _ := cl.LocationOf(vm.ID); loc != 3 {
		t.Fatalf("VM at %d after retry, want 3", loc)
	}
}

func TestSourceDeathMidFlightAborts(t *testing.T) {
	engine, cl, mgr, dead := deathWorld(t)
	vm, _ := cl.CreateVM("a", res(128, 50), res(128, 100))
	if err := cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	var done error = errSentinel
	if err := mgr.Migrate(vm.ID, 3, func(err error) { done = err }); err != nil {
		t.Fatal(err)
	}
	engine.After(100*time.Millisecond, func() { dead[0] = true })
	engine.Run()
	if !errors.Is(done, ErrSourceDead) {
		t.Fatalf("onDone err = %v, want ErrSourceDead", done)
	}
	if st := mgr.Stats(); st.FailedDeadSource != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
