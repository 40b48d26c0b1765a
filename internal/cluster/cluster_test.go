package cluster

import (
	"fmt"
	"testing"

	"vbundle/internal/ids"
	"vbundle/internal/topology"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks: 3, ServersPerRack: 4, NICMbps: 400, Oversubscription: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(tp, Resources{CPU: 8, MemMB: 16384})
}

// NewServer creates an empty server.
func NewServer(index int, capacity Resources) *Server {
	return &Server{Index: index, Capacity: capacity}
}

func bw(mbps float64) Resources { return Resources{CPU: 1, MemMB: 128, BandwidthMbps: mbps} }

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 2, MemMB: 100, BandwidthMbps: 50}
	b := Resources{CPU: 1, MemMB: 30, BandwidthMbps: 20}
	if got := a.Add(b); got != (Resources{3, 130, 70}) {
		t.Errorf("Add = %+v", got)
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Error("Fits wrong")
	}
}

func TestCreateVMValidation(t *testing.T) {
	c := testCluster(t)
	if _, err := c.CreateVM("ibm", bw(200), bw(100)); err == nil {
		t.Fatal("reservation above limit accepted")
	}
	vm, err := c.CreateVM("ibm", bw(100), bw(200))
	if err != nil {
		t.Fatal(err)
	}
	if vm.Key != ids.HashString("ibm") {
		t.Error("VM key is not hash(customer)")
	}
	if vm.ID == 0 {
		t.Error("VM id not assigned")
	}
	if c.VM(vm.ID) != vm {
		t.Error("registry lookup failed")
	}
}

func TestAdmissionByReservation(t *testing.T) {
	c := testCluster(t)
	s := c.Server(0)
	// NIC capacity defaults to the topology's 400 Mbps.
	if s.Capacity.BandwidthMbps != 400 {
		t.Fatalf("capacity = %g", s.Capacity.BandwidthMbps)
	}
	var placed int
	for i := 0; i < 10; i++ {
		vm, err := c.CreateVM("acme", bw(100), bw(400))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Place(vm, 0); err == nil {
			placed++
		}
	}
	if placed != 4 { // 4 × 100 Mbps reservations fill the 400 Mbps NIC
		t.Fatalf("placed %d VMs, want 4", placed)
	}
	if got := s.Reserved().BandwidthMbps; got != 400 {
		t.Fatalf("reserved bandwidth = %g", got)
	}
}

func TestDoublePlaceRejected(t *testing.T) {
	c := testCluster(t)
	vm, _ := c.CreateVM("acme", bw(10), bw(10))
	if err := c.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(vm, 1); err == nil {
		t.Fatal("double placement accepted")
	}
}

func TestMigratePreservesInvariants(t *testing.T) {
	c := testCluster(t)
	vm, _ := c.CreateVM("acme", bw(100), bw(200))
	if err := c.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(vm.ID, 5); err != nil {
		t.Fatal(err)
	}
	if loc, _ := c.LocationOf(vm.ID); loc != 5 {
		t.Fatalf("location = %d", loc)
	}
	if c.Server(0).NumVMs() != 0 || c.Server(5).NumVMs() != 1 {
		t.Fatal("VM count wrong after migrate")
	}
	// Migration to a full server fails and leaves the VM in place.
	for i := 0; i < 4; i++ {
		blocker, _ := c.CreateVM("other", bw(100), bw(100))
		if err := c.Place(blocker, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Migrate(vm.ID, 7); err == nil {
		t.Fatal("migration to full server accepted")
	}
	if loc, _ := c.LocationOf(vm.ID); loc != 5 {
		t.Fatal("failed migration moved the VM")
	}
	// Self-migration is a no-op.
	if err := c.Migrate(vm.ID, 5); err != nil {
		t.Fatal(err)
	}
	// Unplaced VM cannot migrate.
	ghost, _ := c.CreateVM("acme", bw(1), bw(1))
	if err := c.Migrate(ghost.ID, 3); err == nil {
		t.Fatal("migrating unplaced VM accepted")
	}
}

func TestDemandAndUtilization(t *testing.T) {
	c := testCluster(t)
	vm1, _ := c.CreateVM("a", bw(100), bw(200))
	vm2, _ := c.CreateVM("a", bw(100), bw(150))
	if err := c.Place(vm1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(vm2, 0); err != nil {
		t.Fatal(err)
	}
	c.SetDemandBW(vm1, 500) // above limit: capped at 200
	c.SetDemandBW(vm2, 50)
	s := c.Server(0)
	if got := s.DemandBW(); got != 250 {
		t.Fatalf("DemandBW = %g, want 250", got)
	}
	// The cached sum follows the setter; the same bits again change nothing.
	gen := s.Generation()
	c.SetDemandBW(vm2, 50)
	if s.Generation() != gen {
		t.Fatal("an unchanged demand moved the generation")
	}
	c.SetDemandBW(vm2, 80)
	if got := s.DemandBW(); got != 280 {
		t.Fatalf("DemandBW after SetDemandBW = %g, want 280", got)
	}
	c.SetDemandBW(vm2, 50)
	if got := s.UtilizationBW(); got != 250.0/400.0 {
		t.Fatalf("UtilizationBW = %g", got)
	}
	if got := c.TotalDemandBW(); got != 250 {
		t.Fatalf("TotalDemandBW = %g", got)
	}
	if got := c.TotalCapacityBW(); got != 400*12 {
		t.Fatalf("TotalCapacityBW = %g", got)
	}
	if got := c.MeanUtilizationBW(); got != 250.0/(400*12) {
		t.Fatalf("MeanUtilizationBW = %g", got)
	}
	snap := c.UtilizationSnapshot()
	if len(snap) != 12 || snap[0] != 250.0/400.0 || snap[1] != 0 {
		t.Fatalf("snapshot wrong: %v", snap[:2])
	}
}

func TestVMsOfAndCustomers(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 3; i++ {
		if _, err := c.CreateVM("beta", bw(1), bw(2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateVM("alpha", bw(1), bw(2)); err != nil {
		t.Fatal(err)
	}
	if got := c.VMsOf("beta"); len(got) != 3 {
		t.Fatalf("VMsOf(beta) = %d", len(got))
	}
	for i, vm := range c.VMsOf("beta") {
		if i > 0 && vm.ID <= c.VMsOf("beta")[i-1].ID {
			t.Fatal("VMsOf not sorted")
		}
	}
	if got := c.Customers(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Customers = %v", got)
	}
	if c.NumVMs() != 4 {
		t.Fatalf("NumVMs = %d", c.NumVMs())
	}
}

func TestServerRemove(t *testing.T) {
	s := NewServer(0, Resources{BandwidthMbps: 100})
	vm := &VM{ID: 1, Reservation: Resources{BandwidthMbps: 10}, Limit: Resources{BandwidthMbps: 10}}
	if err := s.Admit(vm); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(vm); err == nil {
		t.Fatal("duplicate admit accepted")
	}
	if !s.Remove(1) {
		t.Fatal("Remove reported missing")
	}
	if s.Remove(1) {
		t.Fatal("second Remove reported present")
	}
}

func TestEffectiveDemandBW(t *testing.T) {
	vm := &VM{Limit: Resources{BandwidthMbps: 100}}
	vm.Demand.BandwidthMbps = 60
	if vm.EffectiveDemandBW() != 60 {
		t.Fatal("demand below limit should pass through")
	}
	vm.Demand.BandwidthMbps = 150
	if vm.EffectiveDemandBW() != 100 {
		t.Fatal("demand above limit should cap")
	}
}

// TestVMChunkIndex walks the slot space across every doubling-region
// boundary and checks the (chunk, offset) mapping is a bijection onto
// consecutive arena positions with the advertised capacities.
func TestVMChunkIndex(t *testing.T) {
	wantCaps := []int{256, 512, 1024, 2048, 4096, 4096}
	ci, off := 0, 0
	for i := 0; i < vmGeomSlots+2*vmChunkMax; i++ {
		gc, goff := vmChunkIndex(i)
		if gc != ci || goff != off {
			t.Fatalf("vmChunkIndex(%d) = (%d,%d), want (%d,%d)", i, gc, goff, ci, off)
		}
		if off++; off == vmChunkCap(ci) {
			ci, off = ci+1, 0
		}
	}
	for i, want := range wantCaps {
		if got := vmChunkCap(i); got != want {
			t.Errorf("vmChunkCap(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestVMPointerStabilityAcrossChunks creates enough VMs to span several
// arena blocks and checks earlier *VM pointers still resolve to the same
// records afterwards — the stable-address contract the blocks exist for.
func TestVMPointerStabilityAcrossChunks(t *testing.T) {
	c := testCluster(t)
	var early []*VM
	const total = vmGeomSlots + vmChunkMax + 7
	for i := 0; i < total; i++ {
		vm, err := c.CreateVM(fmt.Sprintf("cust%d", i), Resources{}, Resources{})
		if err != nil {
			t.Fatal(err)
		}
		if i < 300 {
			early = append(early, vm)
		}
	}
	for i, vm := range early {
		if got := c.VM(VMID(i + 1)); got != vm {
			t.Fatalf("VM %d moved: %p vs %p", i+1, got, vm)
		}
		if vm.ID != VMID(i+1) {
			t.Fatalf("VM %d record corrupted: ID %d", i+1, vm.ID)
		}
	}
	if c.NumVMs() != total {
		t.Fatalf("NumVMs = %d, want %d", c.NumVMs(), total)
	}
}

// TestCreateVMKeysEveryVMByItsCustomer holds the remembered hash to its
// source: runs of one customer, alternating customers, the empty customer
// first and a customer coming back all key each VM by hash(customer).
func TestCreateVMKeysEveryVMByItsCustomer(t *testing.T) {
	c := testCluster(t)
	for _, customer := range []string{"", "", "beta", "beta", "beta", "alpha", "beta", "alpha", "", "alpha"} {
		vm, err := c.CreateVM(customer, bw(1), bw(2))
		if err != nil {
			t.Fatal(err)
		}
		if want := ids.HashString(customer); vm.Key != want {
			t.Fatalf("vm %d of %q: key %v, want %v", vm.ID, customer, vm.Key, want)
		}
	}
}
