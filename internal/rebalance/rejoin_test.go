package rebalance

import (
	"testing"
	"time"

	"vbundle/internal/obs"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
)

// TestAdoptLeasesReconciles pins the rejoin verdict for each shape a
// persisted lease record can be in after a crash: re-adopted only when the
// lease is unexpired AND the VM's migration is still in flight AND the VM
// has not already arrived on this server; dropped otherwise.
func TestAdoptLeasesReconciles(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.2))
	st := store.NewMem()
	w.coord.SetStore(st)

	inflight := loadVM(t, w, 0, 100) // migrating 0→1: must be re-adopted
	arrived := loadVM(t, w, 1, 100)  // on server 1, migrating 1→2: hold is moot
	settled := loadVM(t, w, 0, 100)  // not migrating at all: hold is an orphan

	w.engine.RunFor(time.Minute)
	if err := w.mig.MigrateTraced(nil, obs.NoRef, inflight.ID, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.mig.MigrateTraced(nil, obs.NoRef, arrived.ID, 2, nil); err != nil {
		t.Fatal(err)
	}

	now := w.engine.Now()
	lease := 10 * time.Minute
	recs := []store.LeaseRecord{
		{VM: int64(inflight.ID), DemandBW: 100, Expires: now + lease},
		{VM: int64(arrived.ID), DemandBW: 100, Expires: now + lease},
		{VM: int64(settled.ID), DemandBW: 100, Expires: now + lease},
		{VM: int64(inflight.ID), DemandBW: 100, Expires: now - time.Second},
	}
	// The expired duplicate sorts behind the live record in the slice walk;
	// table upserts keep it harmless either way.
	a := w.coord.Agent(1)
	adopted, dropped := a.AdoptLeases(recs, obs.NoRef)
	if adopted != 1 || dropped != 3 {
		t.Fatalf("adopted %d, dropped %d; want 1 adopted (in-flight VM) and 3 dropped", adopted, dropped)
	}
	if got := a.reserved.len(); got != 1 {
		t.Fatalf("reservation table holds %d entries after adoption, want 1", got)
	}
	if a.reserved.get(inflight.ID) == nil {
		t.Fatal("the in-flight VM's hold was not re-adopted")
	}
	if got := w.coord.ReserveStats().Adopted; got != 1 {
		t.Fatalf("ReserveStats.Adopted = %d, want 1", got)
	}

	// The adoption must be persisted: replaying the store now yields
	// exactly the surviving hold.
	saved, ok, err := st.Load(1)
	if err != nil || !ok {
		t.Fatalf("store.Load(1) = ok=%v err=%v", ok, err)
	}
	if len(saved.Leases) != 1 || saved.Leases[0].VM != int64(inflight.ID) {
		t.Fatalf("persisted leases after adoption: %+v, want only vm %d", saved.Leases, inflight.ID)
	}

	// The adopted hold keeps its ORIGINAL expiry: it lapses on schedule,
	// not a fresh lease term later.
	w.engine.RunFor(lease + time.Second)
	a.sweepLeases()
	if got := a.reserved.len(); got != 0 {
		t.Fatalf("adopted hold outlived its original lease: %d entries left", got)
	}
}

// TestLeakedReservationsAuditsDeadNodeStore pins the lazy-expiry fix: a
// crashed node never sweeps its own table, so the leak audit must read the
// dead node's persisted leases and apply expiry itself — unexpired holds
// count as leaks, lapsed ones do not.
func TestLeakedReservationsAuditsDeadNodeStore(t *testing.T) {
	w := build(t, 2, 4, fastCfg(0.2))
	st := store.NewMem()
	w.coord.SetStore(st)
	w.engine.RunFor(time.Minute)

	now := w.engine.Now()
	if err := st.SaveLeases(0, []store.LeaseRecord{
		{VM: 1, DemandBW: 100, Expires: now + 5*time.Minute},
		{VM: 2, DemandBW: 100, Expires: now - time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	w.ring.Network().Crash(simnet.Addr(0))

	if got := w.coord.LeakedReservations(); got != 1 {
		t.Fatalf("leak audit of dead node = %d, want 1 (one unexpired persisted hold)", got)
	}
	w.engine.RunFor(6 * time.Minute)
	if got := w.coord.LeakedReservations(); got != 0 {
		t.Fatalf("leak audit after the hold lapsed = %d, want 0", got)
	}
}
