package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/pastry"
	"vbundle/internal/placement"
	"vbundle/internal/rebalance"
	"vbundle/internal/tcshape"
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

func TestVMAllocationsRespectShaping(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	vm1, res1, err := vb.BootVM("A", bwRes(100), bwRes(1000))
	if err != nil {
		t.Fatal(err)
	}
	vm2, _, err := vb.BootVM("A", bwRes(100), bwRes(1000))
	if err != nil {
		t.Fatal(err)
	}
	vm1.Demand.BandwidthMbps = 900
	vm2.Demand.BandwidthMbps = 900
	alloc := vb.VMAllocations(res1.Server)
	var total float64
	for _, a := range alloc {
		total += a
	}
	if total > 1000+1e-9 {
		t.Fatalf("allocations %v exceed NIC", alloc)
	}
	if alloc[vm1.ID] < 100 {
		t.Fatalf("guarantee violated: %v", alloc)
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

func TestBootVMAsync(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := vb.Cluster.CreateVM("a", bwRes(10), bwRes(20))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	vb.BootVMAsync(vm, func(_ placement.Result, err error) {
		if err != nil {
			t.Errorf("async placement: %v", err)
		}
		done = true
	})
	vb.Engine.Run()
	if !done {
		t.Fatal("async callback never fired")
	}
	if _, placed := vb.Cluster.LocationOf(vm.ID); !placed {
		t.Fatal("VM not placed")
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
	hog.Demand.BandwidthMbps = 900
	victim.Demand.BandwidthMbps = 10 // current demand tiny...
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

func TestBandwidthReportGap(t *testing.T) {
	r := BandwidthReport{DemandMbps: 100, SatisfiedMbps: 80}
	if r.Gap() != 20 {
		t.Fatal("gap")
	}
}

// TestBandwidthSatisfactionAllocatesNothing: the per-sample accounting
// reuses the VBundle's class buffer and shaper, so after one warm call a
// sweep over every server allocates nothing — and reuse across servers of
// different widths leaks no stale class or share: the report is bit for bit
// the one a fresh tcshape.Allocate per server gives (itself pinned to the
// pre-scratch allocator by tcshape's TestShaperMatchesAllocateReference).
func TestBandwidthSatisfactionAllocatesNothing(t *testing.T) {
	vb, err := New(Options{Topology: smallSpec(8, 8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
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
			vm.Demand.BandwidthMbps = float64(rng.Intn(12)) * 25
		}
	}

	var want BandwidthReport
	for _, srv := range vb.Cluster.Servers() {
		classes := rebalance.AppendClasses(nil, srv)
		var got, wanted float64
		for i, a := range tcshape.Allocate(srv.Capacity.BandwidthMbps, classes) {
			got += a
			wanted += math.Min(classes[i].Demand, classes[i].Ceil)
		}
		want.SatisfiedMbps += got
		want.DemandMbps += wanted
	}

	rep := vb.BandwidthSatisfaction() // warm: grows the scratch to the widest server
	if rep != want || rep.Gap() <= 0 {
		t.Fatalf("report %+v, reference %+v (gap must be positive for the test to mean anything)", rep, want)
	}
	if n := testing.AllocsPerRun(20, func() { rep = vb.BandwidthSatisfaction() }); n != 0 {
		t.Fatalf("BandwidthSatisfaction on warm scratch: %v allocs/op, want 0", n)
	}
	if rep != want {
		t.Fatalf("report changed across calls: %+v, reference %+v", rep, want)
	}
}
