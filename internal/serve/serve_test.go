package serve

import (
	"errors"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/topology"
)

var testRes = cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 100}
var testLim = cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200}

// testSpec shrinks the default datacenter to about n servers.
// Live counts the customer's running VMs.
func (f *Frontend) Live(customer string) int {
	if cs, ok := f.customers[customer]; ok {
		return int(cs.n)
	}
	return 0
}

func testSpec(n int) topology.Spec {
	spec := topology.DefaultSpec()
	spec.ServersPerRack = 8
	spec.Racks = (n + 7) / 8
	if spec.RacksPerPod > spec.Racks {
		spec.RacksPerPod = spec.Racks
	}
	return spec
}

func newFrontend(t *testing.T, servers int, cfg Config) (*core.VBundle, *Frontend) {
	t.Helper()
	vb, err := core.New(core.Options{
		Topology: testSpec(servers),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := New(vb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vb, fe
}

// settle runs enough virtual time for any in-flight queries to resolve.
func settle(vb *core.VBundle) { vb.RunFor(time.Minute) }

func TestBootPlacesAndTerminateFreesOldest(t *testing.T) {
	vb, fe := newFrontend(t, 64, Config{})
	admitted, err := fe.Boot("acme", 4, testRes, testLim)
	if err != nil || admitted != 4 {
		t.Fatalf("Boot = %d, %v; want 4, nil", admitted, err)
	}
	settle(vb)
	s := fe.Stats()
	if s.Placed != 4 || s.Failed != 0 {
		t.Fatalf("stats = %+v; want 4 placed, 0 failed", s)
	}
	if fe.Unresolved() != 0 {
		t.Fatalf("unresolved = %d after settle", fe.Unresolved())
	}
	if fe.Live("acme") != 4 {
		t.Fatalf("live = %d; want 4", fe.Live("acme"))
	}

	// Terminates free VMs in id (boot) order.
	var prev cluster.VMID
	for i := 0; i < 4; i++ {
		id, server, ok := fe.Terminate("acme")
		if !ok {
			t.Fatalf("terminate %d missed", i)
		}
		if server < 0 {
			t.Fatalf("terminate %d freed no server", i)
		}
		if i > 0 && id <= prev {
			t.Fatalf("terminate order: %d after %d", id, prev)
		}
		prev = id
	}
	if _, _, ok := fe.Terminate("acme"); ok {
		t.Fatal("terminate on empty customer succeeded")
	}
	if fe.Stats().TerminateMisses != 1 {
		t.Fatalf("terminate misses = %d; want 1", fe.Stats().TerminateMisses)
	}
}

func TestAdmissionControlShedsWithoutLeaking(t *testing.T) {
	vb, fe := newFrontend(t, 64, Config{MaxInFlight: 3})
	admitted, err := fe.Boot("acme", 8, testRes, testLim)
	if admitted != 3 {
		t.Fatalf("admitted = %d; want 3", admitted)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v; want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OverloadError", err)
	}
	if oe.Customer != "acme" || oe.InFlight != 3 || oe.Limit != 3 {
		t.Fatalf("overload detail = %+v", oe)
	}
	s := fe.Stats()
	if s.Requested != 8 || s.Shed != 5 {
		t.Fatalf("stats = %+v; want requested 8, shed 5", s)
	}
	// Shed boots must never have created a VM: exactly the admitted three
	// exist in the cluster.
	if n := len(vb.Cluster.VMsOf("acme")); n != 3 {
		t.Fatalf("cluster holds %d VMs; want 3 (shed boots leaked)", n)
	}
	settle(vb)
	if fe.Unresolved() != 0 {
		t.Fatalf("unresolved = %d after settle", fe.Unresolved())
	}
	if fe.Stats().Placed != 3 {
		t.Fatalf("placed = %d; want 3", fe.Stats().Placed)
	}
	// Capacity recovered: a new request is admitted again.
	if admitted, err := fe.Boot("acme", 2, testRes, testLim); err != nil || admitted != 2 {
		t.Fatalf("post-drain Boot = %d, %v; want 2, nil", admitted, err)
	}
	settle(vb)
	if vb.Rebalancer.LeakedReservations() != 0 {
		t.Fatalf("leaked reservations = %d", vb.Rebalancer.LeakedReservations())
	}
}

func TestBatchingCoalescesConcurrentBoots(t *testing.T) {
	vb, fe := newFrontend(t, 64, Config{Batch: true})
	// Five single-VM requests land while the first is still in flight: the
	// first launches immediately, the other four coalesce into one query.
	for i := 0; i < 5; i++ {
		if _, err := fe.Boot("acme", 1, testRes, testLim); err != nil {
			t.Fatal(err)
		}
	}
	settle(vb)
	s := fe.Stats()
	if s.Placed != 5 {
		t.Fatalf("placed = %d; want 5", s.Placed)
	}
	if s.Queries != 2 {
		t.Fatalf("queries = %d; want 2 (1 immediate + 1 coalesced)", s.Queries)
	}
	if s.Batches != 1 || s.BatchedVMs != 4 {
		t.Fatalf("batches = %d (%d VMs); want 1 batch of 4", s.Batches, s.BatchedVMs)
	}
}

func TestBatchingRespectsMaxBatch(t *testing.T) {
	vb, fe := newFrontend(t, 64, Config{Batch: true, MaxBatch: 2})
	for i := 0; i < 7; i++ {
		if _, err := fe.Boot("acme", 1, testRes, testLim); err != nil {
			t.Fatal(err)
		}
	}
	settle(vb)
	s := fe.Stats()
	if s.Placed != 7 {
		t.Fatalf("placed = %d; want 7", s.Placed)
	}
	// 1 immediate single + ceil(6/2) = 3 capped batches.
	if s.Queries != 4 {
		t.Fatalf("queries = %d; want 4", s.Queries)
	}
	if s.BatchedVMs != 6 {
		t.Fatalf("batched VMs = %d; want 6", s.BatchedVMs)
	}
}

func TestCacheHitsOnRepeatBoots(t *testing.T) {
	vb, fe := newFrontend(t, 64, Config{Cache: true})
	if _, err := fe.Boot("acme", 1, testRes, testLim); err != nil {
		t.Fatal(err)
	}
	settle(vb)
	cs := fe.Cache().Stats()
	if cs.Stores != 1 || cs.Size != 1 {
		t.Fatalf("cache after first boot = %+v; want 1 store", cs)
	}
	for i := 0; i < 3; i++ {
		if _, err := fe.Boot("acme", 1, testRes, testLim); err != nil {
			t.Fatal(err)
		}
		settle(vb)
	}
	cs = fe.Cache().Stats()
	if cs.Hits != 3 {
		t.Fatalf("cache hits = %d; want 3", cs.Hits)
	}
	if fe.Stats().Placed != 4 {
		t.Fatalf("placed = %d; want 4", fe.Stats().Placed)
	}
	// Another customer misses independently.
	if _, err := fe.Boot("globex", 1, testRes, testLim); err != nil {
		t.Fatal(err)
	}
	settle(vb)
	cs = fe.Cache().Stats()
	if cs.Size != 2 {
		t.Fatalf("cache size = %d; want 2", cs.Size)
	}
	_ = vb
}

func TestRequiresDHTEngine(t *testing.T) {
	vb, err := core.New(core.Options{
		Topology: testSpec(32),
		Engine:   core.EngineGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(vb, Config{}); err == nil {
		t.Fatal("New accepted a non-DHT placer")
	}
}
