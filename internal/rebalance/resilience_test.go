package rebalance

import (
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/metrics"
	"vbundle/internal/scribe"
	"vbundle/internal/simnet"
)

// seedSkew loads each server so roughly a quarter are hot, a quarter cold
// and the rest sit at the mean — the Fig. 9 imbalance in miniature.
func seedSkew(t *testing.T, w *world) {
	t.Helper()
	for s := 0; s < w.cl.Size(); s++ {
		var per float64
		switch s % 4 {
		case 0:
			per = 95
		case 1:
			per = 5
		default:
			per = 50
		}
		// 10 VMs per server so there is granularity to move.
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
}

func utilSD(w *world) float64 {
	utils := make([]float64, w.cl.Size())
	for s := range utils {
		srv := w.cl.Server(s)
		utils[s] = srv.DemandOf(cluster.KindBandwidth) / srv.Capacity.BandwidthMbps
	}
	return metrics.StdOf(utils)
}

// TestNoLeakUnderLossAndReceiverKill is the Fig. 9 scenario under fire:
// 2% message loss plus one receiver killed mid-run. Rebalancing must still
// converge, and once everything quiesces no receiver may be left holding a
// reservation — lost releases are retried, orphaned accepts are released,
// and whatever slips through both is reclaimed by lease expiry.
func TestNoLeakUnderLossAndReceiverKill(t *testing.T) {
	cfg := fastCfg(0.1)
	cfg.LeaseDuration = 2 * time.Minute
	w := build(t, 4, 4, cfg, simnet.WithDropRate(0.02))
	seedSkew(t, w)
	before := utilSD(w)

	// Tree heartbeats repair edges that 2% loss breaks (lost join acks).
	for i := 0; i < w.ring.Size(); i++ {
		w.coord.Agent(i).scribe().StartMaintenance(time.Minute)
	}
	w.coord.Start()

	// Let the first rebalance round finish, then kill one current receiver.
	w.engine.RunFor(6 * time.Minute)
	victim := -1
	for i := 0; i < w.ring.Size(); i++ {
		if w.coord.Agent(i).Role() == RoleReceiver {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no receiver to kill")
	}
	w.ring.Network().Crash(simnet.Addr(victim))

	// Several more rounds around the dead receiver, then quiesce: stop the
	// protocol and give in-flight releases and leases time to settle.
	w.engine.RunFor(20 * time.Minute)
	w.coord.Stop()
	for i := 0; i < w.ring.Size(); i++ {
		w.coord.Agent(i).scribe().StopMaintenance()
	}
	// Bounded drain: under loss + a dead node the damaged aggregation tree
	// can bounce flushes indefinitely, so an unbounded Run never returns.
	w.engine.RunFor(cfg.LeaseDuration + time.Minute)

	if leaked := w.coord.LeakedReservations(); leaked != 0 {
		t.Fatalf("%d reservations leaked at quiesce (stats %+v)", leaked, w.coord.ReserveStats())
	}
	if w.coord.MigrationsTriggered() == 0 {
		t.Fatal("no migrations under 2%% loss: rebalancing made no progress")
	}
	after := utilSD(w)
	if after >= before {
		t.Fatalf("utilization SD %0.4f did not improve from %0.4f", after, before)
	}
	st := w.coord.ReserveStats()
	if st.Accepted == 0 || st.Released == 0 {
		t.Fatalf("reservation protocol never ran: %+v", st)
	}
}

// TestLeaseExpiryReclaimsAfterShedderDeath verifies the backstop: a
// receiver whose shedder dies right after the accept (so no release will
// ever arrive) reclaims the hold once the lease runs out.
func TestLeaseExpiryReclaimsAfterShedderDeath(t *testing.T) {
	cfg := fastCfg(0.1)
	cfg.LeaseDuration = 30 * time.Second
	w := build(t, 2, 4, cfg)
	for s := 0; s < w.cl.Size(); s++ {
		loadVM(t, w, s, 500)
	}
	recv := w.coord.Agent(1)
	recv.role = RoleReceiver
	recv.haveMean = true
	recv.means[cluster.KindBandwidth] = 0.5

	q := &shedQuery{
		VMID:        999,
		Customer:    "tenant",
		Reservation: cluster.Resources{BandwidthMbps: 10},
		Demand:      cluster.Resources{BandwidthMbps: 100},
	}
	if !recv.considerQuery(scribe.GroupKey(LessLoadedGroup), q, w.ring.Node(0).Handle()) {
		t.Fatal("receiver rejected an easily admissible query")
	}
	if got := w.coord.LeakedReservations(); got != 1 {
		t.Fatalf("holds after accept = %d, want 1", got)
	}
	// The shedder "dies": no release, no renewal. The hold must survive
	// until the lease deadline and not one sweep longer.
	w.engine.RunFor(cfg.LeaseDuration - time.Second)
	if got := w.coord.LeakedReservations(); got != 1 {
		t.Fatalf("hold reclaimed before its lease ran out (holds=%d)", got)
	}
	w.engine.RunFor(2 * time.Second)
	if got := w.coord.LeakedReservations(); got != 0 {
		t.Fatalf("holds after lease expiry = %d, want 0", got)
	}
	st := w.coord.ReserveStats()
	if st.Expired != 1 || st.Accepted != 1 {
		t.Fatalf("stats = %+v, want Accepted=1 Expired=1", st)
	}
}

// TestDuplicateAndUnknownReleaseStats replaces the old clamp-at-zero
// behavior: a retried release counts as a duplicate, a release for a VM
// that was never held counts as unknown, and neither corrupts the table.
func TestDuplicateAndUnknownReleaseStats(t *testing.T) {
	cfg := fastCfg(0.1)
	w := build(t, 2, 4, cfg)
	for s := 0; s < w.cl.Size(); s++ {
		loadVM(t, w, s, 500)
	}
	recv := w.coord.Agent(1)
	recv.role = RoleReceiver
	recv.haveMean = true
	recv.means[cluster.KindBandwidth] = 0.5
	q := &shedQuery{VMID: 7, Demand: cluster.Resources{BandwidthMbps: 100}}
	from := w.ring.Node(0).Handle()
	if !recv.considerQuery(scribe.GroupKey(LessLoadedGroup), q, from) {
		t.Fatal("receiver rejected the query")
	}

	recv.HandleDirect(from, &releaseMsg{VMID: 7}) // genuine
	recv.HandleDirect(from, &releaseMsg{VMID: 7}) // retry duplicate
	recv.HandleDirect(from, &releaseMsg{VMID: 8}) // never held
	st := recv.reserveStats
	if st.Released != 1 || st.DuplicateRelease != 1 || st.UnknownRelease != 1 {
		t.Fatalf("stats = %+v, want Released=1 DuplicateRelease=1 UnknownRelease=1", st)
	}
	if recv.reserved.len() != 0 {
		t.Fatalf("%d holds left after release", recv.reserved.len())
	}
	w.engine.Run() // drain the acks
}

// TestOrphanedAcceptIsReleasedPromptly is the end-to-end regression for the
// leak: the shedder's any-cast times out before the accept verdict arrives,
// so the receiver is holding resources for an exchange the shedder never
// starts. The orphan path must release the hold through the protocol —
// promptly, not via the lease backstop.
func TestOrphanedAcceptIsReleasedPromptly(t *testing.T) {
	cfg := fastCfg(0.1)
	w := build(t, 4, 4, cfg)
	// One very hot server, a handful of cold ones, the rest at the mean.
	for s := 0; s < w.cl.Size(); s++ {
		var per float64
		switch {
		case s == 0:
			per = 95
		case s < 5:
			per = 5
		default:
			per = 50
		}
		for v := 0; v < 10; v++ {
			loadVM(t, w, s, per)
		}
	}
	shedder := w.coord.Agent(0)
	// The shedder gives up on every query long before any verdict can cross
	// the network, so each accept arrives orphaned.
	shedder.scribe().AnycastTimeout = time.Microsecond
	shedder.scribe().AnycastRetries = 0

	w.coord.Start()
	w.engine.RunFor(7 * time.Minute) // one rebalance round plus slack
	w.coord.Stop()
	w.engine.Run()

	if _, orphans := shedder.scribe().AnycastStats(); orphans == 0 {
		t.Fatal("no orphaned accepts: the timeout never beat the verdict")
	}
	st := w.coord.ReserveStats()
	if st.OrphanReleases == 0 {
		t.Fatalf("no orphan releases sent (stats %+v)", st)
	}
	if st.Released == 0 {
		t.Fatalf("receivers never processed an orphan release (stats %+v)", st)
	}
	if leaked := w.coord.LeakedReservations(); leaked != 0 {
		t.Fatalf("%d reservations leaked (stats %+v)", leaked, st)
	}
	// The protocol, not the lease, must have cleaned up.
	if st.Expired != 0 {
		t.Fatalf("lease expiry had to reclaim %d holds; the orphan path leaked them", st.Expired)
	}
}
