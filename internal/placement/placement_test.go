package placement

import (
	"fmt"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

type world struct {
	engine *sim.Engine
	topo   *topology.Topology
	ring   *pastry.Ring
	cl     *cluster.Cluster
}

// PlaceAllSync drives a synchronous engine (greedy, random) over a VM list,
// returning per-VM results in order.
func PlaceAllSync(e Engine, vms []*cluster.VM) ([]Result, []error) {
	results := make([]Result, len(vms))
	errs := make([]error, len(vms))
	for i, vm := range vms {
		i := i
		e.Place(vm, func(r Result, err error) {
			results[i] = r
			errs[i] = err
		})
	}
	return results, errs
}

func newWorld(t *testing.T, racks, perRack int, nicMbps float64) *world {
	t.Helper()
	return newWorldOn(t, sim.NewEngine(21), racks, perRack, nicMbps)
}

func newWorldOn(t *testing.T, engine *sim.Engine, racks, perRack int, nicMbps float64, opts ...simnet.Option) *world {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      4,
		NICMbps:          nicMbps,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner, opts...)
	ring.BuildStatic()
	cl := cluster.New(tp, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	return &world{engine: engine, topo: tp, ring: ring, cl: cl}
}

// resolveFunc adapts a function to Resolver.
type resolveFunc func(int, Result, error)

func (f resolveFunc) Resolve(i int, r Result, err error) { f(i, r, err) }

func bwRes(mbps float64) cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: mbps}
}

func (w *world) placeDHT(t *testing.T, d *DHT, customer string, n int, resMbps float64) []Result {
	t.Helper()
	results := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		vm, err := w.cl.CreateVM(customer, bwRes(resMbps), bwRes(resMbps*2))
		if err != nil {
			t.Fatal(err)
		}
		d.Place(vm, func(r Result, err error) {
			if err != nil {
				t.Errorf("place %s vm %d: %v", customer, vm.ID, err)
				return
			}
			results = append(results, r)
		})
		w.engine.Run()
	}
	return results
}

func TestDHTPlacesCustomerTogether(t *testing.T) {
	w := newWorld(t, 8, 8, 1000) // 64 servers, 1 Gbps NICs
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	// 16 VMs à 100 Mbps reservation: 10 per server fit, so the whole
	// customer fits in at most 2 servers of one rack.
	w.placeDHT(t, d, "IBM", 16, 100)
	q := Quality(w.cl)
	cq := q.PerCustomer["IBM"]
	if cq.VMs != 16 {
		t.Fatalf("placed %d VMs", cq.VMs)
	}
	if cq.RacksSpanned != 1 {
		t.Errorf("IBM spans %d racks, want 1", cq.RacksSpanned)
	}
	if cq.SameRackPairFraction != 1 {
		t.Errorf("same-rack fraction %g, want 1", cq.SameRackPairFraction)
	}
}

func TestDHTSpillGrowsOutward(t *testing.T) {
	w := newWorld(t, 8, 4, 400) // 32 servers, 4 VMs of 100 Mbps each
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	// 40 VMs à 100 Mbps: needs 10 servers = 2.5 racks.
	w.placeDHT(t, d, "Accolade", 40, 100)
	q := Quality(w.cl)
	cq := q.PerCustomer["Accolade"]
	if cq.VMs != 40 {
		t.Fatalf("placed %d VMs", cq.VMs)
	}
	// 10 servers minimum => at least 3 racks; a tight spill keeps it small.
	if cq.RacksSpanned > 4 {
		t.Errorf("Accolade spans %d racks, want <= 4 (spill not local)", cq.RacksSpanned)
	}
	// The occupied racks must be contiguous (outward growth).
	racks := make(map[int]bool)
	for _, vm := range w.cl.VMsOf("Accolade") {
		loc, _ := w.cl.LocationOf(vm.ID)
		racks[w.topo.RackOf(loc)] = true
	}
	min, max := 1<<30, -1
	for r := range racks {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max-min+1 != len(racks) {
		t.Errorf("racks not contiguous: %v", racks)
	}
}

func TestDHTSeparatesCustomers(t *testing.T) {
	w := newWorld(t, 8, 8, 1000)
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	customers := []string{"Accolade", "Beenox", "Crystal", "Deck13", "Epyx"}
	for _, c := range customers {
		w.placeDHT(t, d, c, 8, 100)
	}
	q := Quality(w.cl)
	for _, c := range customers {
		if q.PerCustomer[c].RacksSpanned > 2 {
			t.Errorf("%s spans %d racks", c, q.PerCustomer[c].RacksSpanned)
		}
	}
	// Chatting traffic should be overwhelmingly intra-rack.
	if frac := q.SameRackPairFraction(); frac < 0.9 {
		t.Errorf("same-rack fraction %g, want >= 0.9", frac)
	}
	if q.Load.BisectionMbps > q.Load.TotalMbps()*0.1 {
		t.Errorf("bisection traffic %g of %g total", q.Load.BisectionMbps, q.Load.TotalMbps())
	}
}

func TestGreedyScattersSecondWave(t *testing.T) {
	// The paper's Fig. 8b point: greedy's second wave lands far from the
	// first wave's VMs because intermediate servers filled up.
	w := newWorld(t, 8, 4, 400)
	g := NewGreedy(w.cl)
	mk := func(customer string, n int) []*cluster.VM {
		vms := make([]*cluster.VM, n)
		for i := range vms {
			vm, err := w.cl.CreateVM(customer, bwRes(100), bwRes(200))
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		return vms
	}
	// Wave 1: two customers interleaved; greedy packs them in arrival order.
	_, errs := PlaceAllSync(g, mk("A", 12))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, errs = PlaceAllSync(g, mk("B", 12))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Wave 2 for customer A lands after B's block: far from A's wave 1.
	_, errs = PlaceAllSync(g, mk("A", 12))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	q := Quality(w.cl)
	if q.PerCustomer["A"].RacksSpanned < 2 {
		t.Errorf("greedy unexpectedly kept A in %d rack(s)", q.PerCustomer["A"].RacksSpanned)
	}
	if q.SameRackPairFraction() > 0.95 {
		t.Errorf("greedy produced near-perfect locality (%g): baseline too strong", q.SameRackPairFraction())
	}
}

func TestDHTBeatsGreedyOnSecondWave(t *testing.T) {
	// Same two-wave scenario for both engines; DHT must retain better
	// chatting locality (the Fig. 8a vs 8b comparison).
	run := func(useDHT bool) float64 {
		w := newWorld(t, 8, 4, 400)
		var e Engine
		var d *DHT
		if useDHT {
			d = NewDHT(w.ring, w.cl, DHTConfig{})
			e = d
		} else {
			e = NewGreedy(w.cl)
		}
		place := func(customer string, n int) {
			for i := 0; i < n; i++ {
				vm, err := w.cl.CreateVM(customer, bwRes(100), bwRes(200))
				if err != nil {
					t.Fatal(err)
				}
				e.Place(vm, func(Result, error) {})
				w.engine.Run()
			}
		}
		place("A", 10)
		place("B", 10)
		place("A", 10) // second wave
		return Quality(w.cl).SameRackPairFraction()
	}
	dht, greedy := run(true), run(false)
	if dht <= greedy {
		t.Errorf("DHT locality %g not better than greedy %g", dht, greedy)
	}
}

func TestRandomEngine(t *testing.T) {
	w := newWorld(t, 4, 4, 400)
	r := NewRandom(w.cl, w.engine.Rand())
	if r.Name() != "random" {
		t.Fatal("name")
	}
	var placed int
	for i := 0; i < 16; i++ {
		vm, _ := w.cl.CreateVM("X", bwRes(100), bwRes(100))
		r.Place(vm, func(res Result, err error) {
			if err == nil {
				placed++
			}
		})
	}
	if placed != 16 {
		t.Fatalf("placed %d of 16", placed)
	}
	// Fill to capacity: 4 racks × 4 servers × 4 VMs = 64 total.
	for i := 0; i < 48; i++ {
		vm, _ := w.cl.CreateVM("X", bwRes(100), bwRes(100))
		r.Place(vm, func(res Result, err error) {
			if err == nil {
				placed++
			}
		})
	}
	if placed != 64 {
		t.Fatalf("placed %d of 64", placed)
	}
	vm, _ := w.cl.CreateVM("X", bwRes(100), bwRes(100))
	r.Place(vm, func(res Result, err error) {
		if err == nil {
			t.Error("placement on full cluster succeeded")
		}
	})
}

func TestGreedyFullClusterFails(t *testing.T) {
	w := newWorld(t, 1, 2, 100)
	g := NewGreedy(w.cl)
	var errs int
	for i := 0; i < 3; i++ {
		vm, _ := w.cl.CreateVM("X", bwRes(100), bwRes(100))
		g.Place(vm, func(res Result, err error) {
			if err != nil {
				errs++
			}
		})
	}
	if errs != 1 {
		t.Fatalf("errs = %d, want 1", errs)
	}
}

func TestDHTSpillExhaustionReportsError(t *testing.T) {
	w := newWorld(t, 2, 2, 100)
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	var failures int
	for i := 0; i < 5; i++ { // capacity for 4 VMs à 100 Mbps
		vm, _ := w.cl.CreateVM("X", bwRes(100), bwRes(100))
		d.Place(vm, func(res Result, err error) {
			if err != nil {
				failures++
			}
		})
		w.engine.Run()
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	placed, _, _, fails := d.Stats()
	if placed != 4 || fails != 1 {
		t.Fatalf("stats placed=%d fails=%d", placed, fails)
	}
}

func TestDHTHopsAreModest(t *testing.T) {
	w := newWorld(t, 8, 8, 1000)
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	w.placeDHT(t, d, "HopCheck", 20, 50)
	_, mean, max, _ := d.Stats()
	if mean > 8 {
		t.Errorf("mean query hops %g too high", mean)
	}
	if max > 32 {
		t.Errorf("max query hops %d too high", max)
	}
}

func TestChattingFlowsShape(t *testing.T) {
	w := newWorld(t, 2, 2, 1000)
	for i := 0; i < 3; i++ {
		vm, _ := w.cl.CreateVM("c", bwRes(1), bwRes(1))
		if err := w.cl.Place(vm, i%w.cl.Size()); err != nil {
			t.Fatal(err)
		}
	}
	flows := ChattingFlows(w.cl, 5, 2)
	// 3 VMs × min(k=2, n-1=2) peers = 6 flows.
	if len(flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(flows))
	}
	for _, f := range flows {
		if f.Mbps != 5 {
			t.Fatalf("flow rate %g", f.Mbps)
		}
	}
	// Single-VM customers generate no flows.
	vm, _ := w.cl.CreateVM("solo", bwRes(1), bwRes(1))
	if err := w.cl.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range ChattingFlows(w.cl, 5, 2) {
		_ = f
	}
	if got := len(ChattingFlows(w.cl, 5, 2)); got != 6 {
		t.Fatalf("solo customer added flows: %d", got)
	}
}

func TestSnapshotCollapsesDuplicates(t *testing.T) {
	w := newWorld(t, 2, 2, 1000)
	for i := 0; i < 3; i++ {
		vm, _ := w.cl.CreateVM("c", bwRes(1), bwRes(1))
		if err := w.cl.Place(vm, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := Snapshot(w.cl)
	if len(snap.Points()) != 1 {
		t.Fatalf("snapshot points = %d, want 1 (collapsed)", len(snap.Points()))
	}
}

// bankedEnvelopes takes the n envelopes the bank must hold and banks them
// again in the same order.
func bankedEnvelopes(t *testing.T, d *DHT, n int) []*bootQuery {
	t.Helper()
	qs := make([]*bootQuery, n)
	for i := range qs {
		if qs[i] = d.envelopes.Take(); !qs[i].banked {
			t.Fatalf("the bank holds %d envelopes, want %d", i, n)
		}
	}
	for i := n - 1; i >= 0; i-- {
		d.envelopes.Put(qs[i])
	}
	return qs
}

// TestIdleGatewayKeepsItsEnvelopes: the boot envelopes a burst of concurrent
// queries needed stay banked once the gateway goes idle, so a second burst
// carves none, and keep their backings but for those over 1 KB. Each query
// carries 200 VMs, whose VM list (2 KB) outgrows the pools' largest class:
// banked envelopes keep it while the burst lasts, and the answer that
// leaves nothing in flight takes it from all but its own envelope, so a
// gateway does not carry its busiest moment's longest walks for good. Their
// answer vectors (1 KB) stay.
func TestIdleGatewayKeepsItsEnvelopes(t *testing.T) {
	w := newWorld(t, 16, 8, 1000)
	d := NewDHT(w.ring, w.cl, DHTConfig{})
	const burst, batch = 16, 200
	outgrown := func(qs []*bootQuery) (n int) {
		for _, q := range qs {
			if d.backings.outgrows(q) {
				n++
			}
		}
		return n
	}
	wave := func(round int) {
		answered := 0
		for i := 0; i < burst; i++ {
			vms := make([]cluster.VMID, batch)
			for k := range vms {
				vm, err := w.cl.CreateVM(fmt.Sprintf("customer-%d-%d", round, i), bwRes(1), bwRes(2))
				if err != nil {
					t.Fatal(err)
				}
				vms[k] = vm.ID
			}
			d.PlaceBatch(vms, resolveFunc(func(k int, _ Result, err error) {
				if err != nil {
					t.Errorf("round %d, query %d, VM %d: %v", round, i, k, err)
				}
				if k < batch-1 {
					return
				}
				if answered++; answered == burst/2 {
					// Half-way through the burst the answered half's envelopes
					// are banked with every backing they grew, the other half
					// is in flight.
					if got := outgrown(bankedEnvelopes(t, d, answered-1)); got != answered-1 {
						t.Errorf("round %d: %d of %d banked envelopes keep their VM lists mid-burst", round, got, answered-1)
					}
				}
			}))
		}
		if d.tq.pending != burst {
			t.Fatalf("round %d: %d queries in flight, want %d", round, d.tq.pending, burst)
		}
		w.engine.Run()
		if answered != burst || d.tq.pending != 0 {
			t.Fatalf("round %d: %d of %d answered, %d pending", round, answered, burst, d.tq.pending)
		}
		// The last answer's envelope is the first the bank hands out.
		qs := bankedEnvelopes(t, d, burst)
		if got := outgrown(qs[1:]); got != 0 || !d.backings.outgrows(qs[0]) || len(d.outgrown) != 1 {
			t.Fatalf("round %d: an idle gateway banks %d envelopes besides the last answer's with a backing over 1 KB, %d listed", round, got, len(d.outgrown))
		}
		for _, q := range qs[1:] {
			if cap(q.VMs) != 0 || cap(q.Servers) < batch || cap(q.HopsAt) < batch {
				t.Fatalf("round %d: an idle envelope holds room for %d VMs and %d, %d answers", round, cap(q.VMs), cap(q.Servers), cap(q.HopsAt))
			}
		}
	}
	wave(0)
	if d.carved != burst {
		t.Fatalf("a burst of %d queries carved %d envelopes", burst, d.carved)
	}
	wave(1)
	if d.carved != burst {
		t.Fatalf("a second burst after idle carved %d envelopes more", d.carved-burst)
	}
}
