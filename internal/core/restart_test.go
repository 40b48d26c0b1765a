package core

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
)

// TestCrashRestartRebuildsNodeFromStore drives a true crash through the
// full core stack: the victim's pastry node, scribe, aggregation and
// rebalance agent are discarded with the handler, and the restarter
// rebuilds all of them from the durable store, rejoins the ring, and loses
// nothing.
func TestCrashRestartRebuildsNodeFromStore(t *testing.T) {
	opts := fastOpts()
	opts.Store = store.NewMem()
	opts.Seed = 5
	vb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	seedImbalance(t, vb)
	vb.Workloads.Start(time.Minute)
	vb.StartMaintenance(30 * time.Second)
	vb.StartServices()

	vb.RunFor(10 * time.Minute)
	const victim = 5
	oldNode := vb.Ring.Node(victim)
	oldScribe := vb.Scribes[victim]
	addr := oldNode.Addr()
	vb.Ring.Network().Crash(addr)
	if vb.Ring.Network().Alive(addr) {
		t.Fatal("victim still alive after Crash")
	}
	vb.Engine.AtGlobal(vb.Now()+5*time.Minute, func() {
		vb.Ring.Network().Restart(addr)
	})
	vb.RunFor(30 * time.Minute)

	vb.StopServices()
	vb.StopMaintenance()
	vb.Workloads.Stop()
	// A full lease term so anything the crash orphaned has lapsed.
	vb.RunFor(vb.Rebalancer.Config().LeaseDuration + time.Minute)

	if !vb.Ring.Network().Alive(addr) {
		t.Fatal("victim not alive after Restart")
	}
	// The stack really was rebuilt, not revived.
	if vb.Ring.Node(victim) == oldNode {
		t.Fatal("pastry node survived the crash; Restart must rebuild it")
	}
	if vb.Scribes[victim] == oldScribe {
		t.Fatal("scribe survived the crash; Restart must rebuild it")
	}
	if got := vb.Recovery.Restarts; got != 1 {
		t.Fatalf("Recovery.Restarts = %d, want 1", got)
	}
	if vb.Recovery.BlankBoots != 0 {
		t.Fatal("restart found an empty store despite continuous checkpointing")
	}
	if vb.Recovery.VerifiedPlacements == 0 {
		t.Fatal("restart verified no placements; the store held nothing useful")
	}
	if got := vb.Recovery.LostPlacements; got != 0 {
		t.Fatalf("placements lost across the restart: %d", got)
	}
	// The rebuilt node rejoined: it knows peers again and its agent is wired
	// into the coordinator.
	if len(vb.Ring.Node(victim).Peers()) == 0 {
		t.Fatal("rebuilt node has no peers after rejoin")
	}
	if vb.Rebalancer.Agent(victim) == nil {
		t.Fatal("coordinator has no agent for the rebuilt node")
	}
	// Nothing leaked anywhere — live tables and the stores agree.
	if got := vb.Rebalancer.LeakedReservations(); got != 0 {
		t.Fatalf("leaked reservations after recovery: %d", got)
	}
	// Every VM is still placed somewhere.
	placed := 0
	for _, srv := range vb.Cluster.Servers() {
		placed += len(srv.VMs())
	}
	if placed != vb.Cluster.NumVMs() {
		t.Fatalf("%d of %d VMs placed after recovery", placed, vb.Cluster.NumVMs())
	}
}

// TestCrashWithoutStoreHasNoRestarter pins the configuration contract: a
// core built without Options.Store wires no restarter, so a crash-restart
// schedule fails loudly instead of silently reviving soft state.
func TestCrashWithoutStoreHasNoRestarter(t *testing.T) {
	vb, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	addr := vb.Ring.Node(3).Addr()
	vb.Ring.Network().Crash(addr)
	defer func() {
		if recover() == nil {
			t.Fatal("Restart without a store-backed restarter did not panic")
		}
	}()
	vb.Ring.Network().Restart(addr)
}

// ofRing reports whether h names a node of vb's ring: one of its addresses,
// under the identifier the ring gave that address.
func ofRing(vb *VBundle, h pastry.NodeHandle) bool {
	return h.Addr >= 0 && int(h.Addr) < vb.Ring.Size() && vb.Ring.Node(int(h.Addr)).Handle() == h
}

// TestRestartOverForeignCheckpoint reboots a node whose durable store holds
// another ring's peer checkpoint — a 64-server ring's, read back with a valid
// checksum — where its own should be. Peers the 16-server ring does not have
// (addresses past its end, its own addresses under the other ring's
// identifiers) must be skipped and counted, and the node must still come back
// through whatever the checkpoint got right.
func TestRestartOverForeignCheckpoint(t *testing.T) {
	const victim = 5
	bigOpts := fastOpts()
	bigOpts.Topology = smallSpec(8, 8)
	bigOpts.Store = store.NewMem()
	if _, err := New(bigOpts); err != nil {
		t.Fatal(err)
	}
	foreign, ok, err := bigOpts.Store.Load(victim)
	if err != nil || !ok || len(foreign.Peers) == 0 {
		t.Fatalf("64-server ring left no checkpoint for node %d: ok=%v err=%v", victim, ok, err)
	}

	opts := fastOpts()
	opts.Store = store.NewMem()
	opts.Trace = obs.New()
	vb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 0 // peers of the foreign checkpoint that are not nodes of this ring
	for _, p := range foreign.Peers {
		h := pastry.NodeHandle{Id: ids.New(p.IdHi, p.IdLo), Addr: simnet.Addr(p.Addr)}
		if !ofRing(vb, h) {
			want++
		}
	}
	if want == 0 || want == len(foreign.Peers) {
		t.Fatalf("fixture: %d of %d foreign peers are not of this ring; need some but not all", want, len(foreign.Peers))
	}
	if err := opts.Store.SavePeers(victim, foreign.Peers); err != nil {
		t.Fatal(err)
	}

	vb.StartMaintenance(30 * time.Second)
	addr := vb.Ring.Node(victim).Addr()
	vb.Ring.Network().Crash(addr)
	var survivors []pastry.NodeHandle // what the fresh tables held as Restart returned
	vb.Engine.AtGlobal(vb.Now()+time.Minute, func() {
		vb.Ring.Network().Restart(addr)
		survivors = vb.Ring.Node(victim).Peers()
	})
	vb.RunFor(time.Minute + time.Second)

	if !vb.Ring.Network().Alive(addr) {
		t.Fatal("node did not restart")
	}
	if len(survivors) != len(foreign.Peers)-want {
		t.Fatalf("rejoined with %d peers, the checkpoint held %d of this ring", len(survivors), len(foreign.Peers)-want)
	}
	for _, h := range survivors {
		if !ofRing(vb, h) || !vb.Ring.Network().Alive(h.Addr) {
			t.Fatalf("rejoined node holds %v: not a live node of this ring", h)
		}
	}
	skipped := int64(-1)
	for _, ev := range opts.Trace.Events() {
		if ev.Kind == obs.KindRejoin && ev.Phase == obs.PhaseBegin {
			skipped = ev.A
		}
	}
	if skipped != int64(want) {
		t.Fatalf("rejoin span counts %d skipped peers, want %d", skipped, want)
	}

	// The survivors are enough: maintenance fills the tables back in, and
	// everything in them is of this ring.
	vb.RunFor(10 * time.Minute)
	vb.StopMaintenance()
	peers := vb.Ring.Node(victim).Peers()
	if len(peers) <= len(survivors) {
		t.Fatalf("tables did not grow past the %d survivors: %d peers", len(survivors), len(peers))
	}
	for _, h := range peers {
		if !ofRing(vb, h) {
			t.Fatalf("node holds %v after repair: not a node of this ring", h)
		}
	}
}
