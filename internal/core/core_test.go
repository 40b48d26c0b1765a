package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

func smallSpec(racks, perRack int) topology.Spec {
	return topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      4,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	}
}

func bwRes(mbps float64) cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: mbps}
}

func TestNewWithDefaultsBuildsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-node ring build in -short mode")
	}
	vb, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vb.Topo.Servers() != 3010 {
		t.Fatalf("servers = %d", vb.Topo.Servers())
	}
	if vb.Placer.Name() != "vbundle-dht" {
		t.Fatalf("engine = %s", vb.Placer.Name())
	}
}

func TestBootVMPlacesThroughDHT(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	vm, res, err := vb.BootVM("IBM", bwRes(100), bwRes(200))
	if err != nil {
		t.Fatal(err)
	}
	loc, placed := vb.Cluster.LocationOf(vm.ID)
	if !placed || loc != res.Server {
		t.Fatalf("vm at %d (placed=%v), result says %d", loc, placed, res.Server)
	}
	// Same customer's next VMs co-locate.
	for i := 0; i < 5; i++ {
		_, r2, err := vb.BootVM("IBM", bwRes(100), bwRes(200))
		if err != nil {
			t.Fatal(err)
		}
		if !vb.Topo.SameRack(res.Server, r2.Server) {
			t.Errorf("vm %d landed in another rack (%d vs %d)", i, r2.Server, res.Server)
		}
	}
}

func TestEngineSelection(t *testing.T) {
	for kind, name := range map[EngineKind]string{
		EngineDHT:    "vbundle-dht",
		EngineGreedy: "greedy",
		EngineRandom: "random",
	} {
		vb, err := New(Options{Topology: smallSpec(2, 2), Engine: kind})
		if err != nil {
			t.Fatal(err)
		}
		if vb.Placer.Name() != name {
			t.Errorf("kind %v -> %s, want %s", kind, vb.Placer.Name(), name)
		}
		if kind.String() != name {
			t.Errorf("String() = %s", kind.String())
		}
	}
	if _, err := New(Options{Topology: smallSpec(1, 1), Engine: EngineKind(99)}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestProtocolJoinOption(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(2, 4), ProtocolJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range vb.Ring.Nodes() {
		if !n.Joined() {
			t.Fatalf("node %d not joined", i)
		}
	}
	if _, _, err := vb.BootVM("A", bwRes(10), bwRes(20)); err != nil {
		t.Fatal(err)
	}
}

// ringHash folds every node's routing state — leaf sets, routing table,
// neighbourhood set, in Peers order — into one value.
func ringHash(ring *pastry.Ring) uint64 {
	h := fnv.New64a()
	var b [20]byte
	for _, n := range ring.Nodes() {
		for _, p := range n.Peers() {
			binary.LittleEndian.PutUint64(b[0:], p.Id.Hi())
			binary.LittleEndian.PutUint64(b[8:], p.Id.Lo())
			binary.LittleEndian.PutUint32(b[16:], uint32(p.Addr))
			h.Write(b[:])
		}
		h.Write([]byte{0xff}) // node boundary
	}
	return h.Sum64()
}

// TestNewOverlayBuildsTheRingNewBuilds holds the constructor to itself: New
// is NewOverlay plus the layers above, so the same options must give the
// same ring, scribes and managers — statically built, sharded, or joined
// by protocol.
func TestNewOverlayBuildsTheRingNewBuilds(t *testing.T) {
	for name, opts := range map[string]Options{
		"static":  {Topology: smallSpec(4, 8), Seed: 3},
		"sharded": {Topology: smallSpec(4, 8), Seed: 3, Shards: 2},
		"join":    {Topology: smallSpec(2, 6), Seed: 5, ProtocolJoin: true, JoinStagger: 20 * time.Millisecond},
	} {
		ov, err := NewOverlay(opts)
		if err != nil {
			t.Fatalf("%s: NewOverlay: %v", name, err)
		}
		vb, err := New(opts)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if a, b := ringHash(ov.Ring), ringHash(vb.Ring); a != b {
			t.Errorf("%s: NewOverlay ring %016x, New ring %016x", name, a, b)
		}
		if ov.Engine.Now() != vb.Now() {
			t.Errorf("%s: NewOverlay ends construction at %v, New at %v", name, ov.Engine.Now(), vb.Now())
		}
		n := ov.Ring.Size()
		if len(ov.Scribes) != n || len(ov.Aggs) != n || len(vb.Scribes) != n || len(vb.Aggs) != n {
			t.Errorf("%s: %d nodes, overlay %d scribes / %d managers, full stack %d / %d",
				name, n, len(ov.Scribes), len(ov.Aggs), len(vb.Scribes), len(vb.Aggs))
		}
	}
}

// TestZeroLANHopNeedsOneShard: a zero LAN hop is a topology the one-shard
// engine builds on, but it leaves two or more shards no lookahead, so there
// NewOverlay and New return an error naming the field instead of panicking.
func TestZeroLANHopNeedsOneShard(t *testing.T) {
	spec := smallSpec(2, 4)
	spec.LANHop = 0
	for _, shards := range []int{0, 1, 2} {
		opts := Options{Topology: spec, Seed: 1, Shards: shards}
		_, errOverlay := NewOverlay(opts)
		_, errStack := New(opts)
		for _, err := range []error{errOverlay, errStack} {
			switch {
			case shards < 2 && err != nil:
				t.Errorf("shards %d: %v", shards, err)
			case shards >= 2 && (err == nil || !strings.Contains(err.Error(), "core: ") || !strings.Contains(err.Error(), "Topology.LANHop")):
				t.Errorf("shards %d: error %v, want a core: error naming Topology.LANHop", shards, err)
			}
		}
	}
}

// TestPastryDigitWidth: a digit width pastry.Config does not allow is a
// configuration error NewOverlay and New return, naming the field, not a
// panic inside NewRing (b = 3) or a ring built anyway (b = 8).
func TestPastryDigitWidth(t *testing.T) {
	for _, tc := range []struct {
		cfg pastry.Config
		bad string // the field the error must name; empty for a valid config
	}{
		{pastry.Config{B: 0}, ""},
		{pastry.Config{B: 1}, ""},
		{pastry.Config{B: 2}, ""},
		{pastry.Config{B: 4}, ""},
		{pastry.Config{B: 3}, "Pastry.B"},
		{pastry.Config{B: 8}, "Pastry.B"},
		{pastry.Config{B: -4}, "Pastry.B"},
		{pastry.Config{NeighborhoodSize: -1}, "Pastry.NeighborhoodSize"},
		{pastry.Config{LeafSize: -2}, "Pastry.LeafSize"},
	} {
		opts := Options{Topology: smallSpec(2, 4), Seed: 1, Pastry: tc.cfg}
		_, errOverlay := NewOverlay(opts)
		_, errStack := New(opts)
		for _, err := range []error{errOverlay, errStack} {
			switch {
			case tc.bad == "" && err != nil:
				t.Errorf("%+v: %v", tc.cfg, err)
			case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.bad)):
				t.Errorf("%+v: error %v, want a core: error naming %s", tc.cfg, err, tc.bad)
			}
		}
	}
}

// TestBadCadencesAndLossAreErrors: a negative aggregation or rebalance
// period (which made StartServices panic in sim's ticker), a negative lease
// or threshold (each accepted) and a loss rate outside [0, 1), the range
// simnet.WithDropRate allows (which was accepted), are configuration errors
// New returns, naming the field; NewOverlay returns the two it reads.
func TestBadCadencesAndLossAreErrors(t *testing.T) {
	for _, tc := range []struct {
		set     func(*Options)
		bad     string // the field the error must name
		overlay bool   // NewOverlay reads the field and must refuse it too
	}{
		{func(o *Options) { o.Rebalance.UpdateInterval = -time.Minute }, "Rebalance.UpdateInterval", true},
		{func(o *Options) { o.Rebalance.RebalanceInterval = -time.Minute }, "Rebalance.RebalanceInterval", false},
		{func(o *Options) { o.Rebalance.LeaseDuration = -time.Second }, "Rebalance.LeaseDuration", false},
		{func(o *Options) { o.Rebalance.Threshold = -1 }, "Rebalance.Threshold", false},
		{func(o *Options) { o.MessageLoss = 1 }, "MessageLoss", true},
		{func(o *Options) { o.MessageLoss = -0.1 }, "MessageLoss", true},
	} {
		opts := Options{Topology: smallSpec(2, 4), Seed: 1}
		tc.set(&opts)
		_, err := New(opts)
		errs := []error{err}
		if tc.overlay {
			_, err := NewOverlay(opts)
			errs = append(errs, err)
		}
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("bad %s: error %v, want a core: error naming it", tc.bad, err)
			}
		}
	}
}

func TestEndToEndRebalancingImprovesBalance(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vb.Rebalancer.Config()
	_ = cfg
	// Boot 6 VMs per server region for one customer; then skew demand.
	var vms []*cluster.VM
	for i := 0; i < 48; i++ {
		vm, _, err := vb.BootVM("Tenant", bwRes(50), bwRes(1000))
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	// Skew: VMs on the most loaded server spike; attach generators.
	for i, vm := range vms {
		if i%3 == 0 {
			vb.Workloads.Attach(vm.ID, workload.Flat(600))
		} else {
			vb.Workloads.Attach(vm.ID, workload.Flat(30))
		}
	}
	vb.Workloads.Start(time.Minute)
	before := vb.UtilizationStdDev()
	vb.StartServices()
	vb.RunFor(3 * time.Hour) // default intervals: 5m update, 25m rebalance
	vb.StopServices()
	vb.Workloads.Stop()
	after := vb.UtilizationStdDev()
	if after >= before {
		t.Errorf("SD did not improve: %.4f -> %.4f", before, after)
	}
	rep := vb.BandwidthSatisfaction()
	if rep.SatisfiedMbps > rep.DemandMbps+1e-6 {
		t.Errorf("satisfied %.0f exceeds demand %.0f", rep.SatisfiedMbps, rep.DemandMbps)
	}
}

func TestOptionsAccessorAndNow(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(1, 2), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if vb.Options().Seed != 3 {
		t.Fatal("Options accessor lost the seed")
	}
	if vb.Now() != 0 {
		t.Fatalf("fresh clock at %v", vb.Now())
	}
	vb.RunFor(time.Minute)
	if vb.Now() != time.Minute {
		t.Fatalf("Now = %v", vb.Now())
	}
}

func TestAvailableBandwidthProbe(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	hog, _, err := vb.BootVM("a", bwRes(100), bwRes(1000))
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := vb.BootVM("a", bwRes(100), bwRes(1000))
	if err != nil {
		t.Fatal(err)
	}
	vb.Cluster.SetDemandBW(hog, 900)
	vb.Cluster.SetDemandBW(victim, 10) // current demand tiny...
	avail := vb.AvailableBandwidth(victim.ID)
	// ...but the probe asks at the limit: guarantees 100 + equal surplus.
	if avail < 100 {
		t.Fatalf("available %.0f below guarantee", avail)
	}
	if avail > 1000 {
		t.Fatalf("available %.0f above NIC", avail)
	}
	// Unplaced VM probes to zero.
	ghost, _ := vb.Cluster.CreateVM("a", bwRes(1), bwRes(2))
	if got := vb.AvailableBandwidth(ghost.ID); got != 0 {
		t.Fatalf("unplaced available = %g", got)
	}
}

// Gap returns unmet demand.
func (r BandwidthReport) Gap() float64 { return r.DemandMbps - r.SatisfiedMbps }

func TestBandwidthReportGap(t *testing.T) {
	r := BandwidthReport{DemandMbps: 100, SatisfiedMbps: 80}
	if r.Gap() != 20 {
		t.Fatal("gap")
	}
}

// TestBandwidthSatisfactionAllocatesNothing: the per-sample accounting
// reuses the VBundle's class buffer, shaper and ledger, so after one warm
// call a sweep over every server allocates nothing — also when a migration
// since the last sweep makes it re-shape two servers — and reuse across
// servers of different widths leaks no stale class or share: the report is
// bit for bit FullSweep's, a fresh tcshape.Allocate per server (itself
// pinned to the pre-scratch allocator by tcshape's
// TestShaperMatchesAllocateReference).
func TestBandwidthSatisfactionAllocatesNothing(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(8, 8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var moving *cluster.VM
	for s := 0; s < vb.Cluster.Size(); s++ {
		// 0–13 VMs a server: empty servers, and past the sort's
		// insertion-sort cutoff of 12.
		for v := rng.Intn(14); v > 0; v-- {
			vm, err := vb.Cluster.CreateVM("bundle", bwRes(10), bwRes(1000))
			if err != nil {
				t.Fatal(err)
			}
			if err := vb.Cluster.Place(vm, s); err != nil {
				t.Fatal(err)
			}
			// A coarse grid, so tied headrooms are common; some servers end
			// up over-subscribed, some idle.
			vb.Cluster.SetDemandBW(vm, float64(rng.Intn(12))*25)
			moving = vm
		}
	}

	rep := vb.BandwidthSatisfaction() // warm: grows the scratch to the widest server
	if want := FullSweep(vb.Cluster); rep != want || rep.Gap() <= 0 {
		t.Fatalf("report %+v, reference %+v (gap must be positive for the test to mean anything)", rep, want)
	}
	if n := testing.AllocsPerRun(20, func() { rep = vb.BandwidthSatisfaction() }); n != 0 {
		t.Fatalf("BandwidthSatisfaction on warm scratch: %v allocs/op, want 0", n)
	}
	if want := FullSweep(vb.Cluster); rep != want {
		t.Fatalf("report changed across calls: %+v, reference %+v", rep, want)
	}

	// The last VM seeded moves between its server and server 0 (empty or
	// not, its list has room for one more after the first move) before
	// every sweep: two entries re-shaped a call, none of it allocated.
	home, _ := vb.Cluster.LocationOf(moving.ID)
	to := 0
	if home == 0 {
		to = 1
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := vb.Cluster.Migrate(moving.ID, to); err != nil {
			t.Fatal(err)
		}
		home, to = to, home
		rep = vb.BandwidthSatisfaction()
	}); n != 0 {
		t.Fatalf("BandwidthSatisfaction after a migration: %v allocs/op, want 0", n)
	}
	if want := FullSweep(vb.Cluster); rep != want {
		t.Fatalf("report after migrations %+v, reference %+v", rep, want)
	}
}

// TestCoreConstructionAllocatesPerLayer: what New builds above the overlay —
// the cluster's servers, the placement and rebalancing agents, the hooks
// between them and the layers below — allocates per layer, not per server:
// each batch constructor carves one slice, a rebalancing agent meets scribe
// through the node's app registry (scribe.OrphanAcceptor) and not through a
// method value, and its release table is made by its first release. A closure
// or an object a server anywhere above the overlay fails it.
func TestCoreConstructionAllocatesPerLayer(t *testing.T) {
	const servers, ceiling = 4096, 0.05
	opts := Options{Topology: smallSpec(servers/32, 32), Seed: 1}
	overlay := testing.AllocsPerRun(1, func() {
		if _, err := NewOverlay(opts); err != nil {
			t.Fatal(err)
		}
	})
	stack := testing.AllocsPerRun(1, func() {
		if _, err := New(opts); err != nil {
			t.Fatal(err)
		}
	})
	perServer := (stack - overlay) / servers
	t.Logf("NewOverlay %.0f objects, New %.0f: %.4f a server above the overlay", overlay, stack, perServer)
	if perServer > ceiling {
		t.Fatalf("New allocates %.4f objects a server beyond the overlay; the ceiling is %v", perServer, ceiling)
	}
}

// TestStartServicesAllocatesOnlyMessages: starting a server's services — two
// aggregation subscriptions, the aggregation ticker and the agent's update and
// rebalance tickers — allocates its join messages and nothing of its own
// plumbing: every ticker is embedded in its owner and is its own event's
// handler, a topic is its flush's handler, and the subscriptions and tickers
// dispatch through named pointer types over their owners. The join messages
// are the group key the server already holds and their routed envelopes come
// out of the engine's slab, so what is left a server is the second group's
// state, one object (five before the slab); a closure, a method value or a
// message object a server anywhere in the start path fails it. On a warm engine, a handler event and an
// embedded ticker's start and stop allocate nothing.
func TestStartServicesAllocatesOnlyMessages(t *testing.T) {
	const small, large, ceiling = 1024, 2048, 1.1
	start := func(servers int) float64 {
		vb, err := New(Options{Topology: smallSpec(servers/32, 32), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		vb.StartServices()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(vb)
		return float64(after.Mallocs - before.Mallocs)
	}
	a, b := start(small), start(large)
	perServer := (b - a) / (large - small)
	t.Logf("StartServices: %.0f objects at %d servers, %.0f at %d: %.2f a server", a, small, b, large, perServer)
	if perServer > ceiling {
		t.Fatalf("StartServices allocates %.2f objects a server; the ceiling is %v", perServer, ceiling)
	}

	vb, err := New(Options{Topology: smallSpec(1, 32), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tk sim.Ticker
	h := &nopTick{vb.Engine}
	warm := func() {
		vb.Engine.AfterHandler(time.Second, h)
		tk.Start(h)
		tk.Stop()
		vb.Engine.Run()
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("a handler event and an embedded ticker's start and stop allocate %v objects on a warm engine", n)
	}
}

// nopTick is a sim.Periodic that does nothing every second.
type nopTick struct{ e *sim.Engine }

func (*nopTick) Fire()                                  {}
func (t *nopTick) Period() (*sim.Engine, time.Duration) { return t.e, time.Second }
