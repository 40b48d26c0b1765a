package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/placement"
	"vbundle/internal/sim"
)

// streamStep returns one step of a continuous serving stream over eight
// customers: 5 ms of virtual time, a boot for the next customer in turn,
// and two terminates once that customer holds more than four VMs. A boot
// lands every 5 ms whatever the queries take, so the stream never drains.
func streamStep(t *testing.T, vb *core.VBundle, fe *Frontend) func() {
	customers := make([]string, 8)
	for i := range customers {
		customers[i] = fmt.Sprintf("tenant-%d", i)
	}
	next := 0
	return func() {
		vb.RunFor(5 * time.Millisecond)
		c := customers[next%len(customers)]
		next++
		if _, err := fe.Boot(c, 1, testRes, testLim); err != nil {
			t.Fatal(err)
		}
		if fe.Live(c) > 4 {
			fe.Terminate(c)
			fe.Terminate(c)
		}
	}
}

// TestBootPathAllocatesNothing is the serving request's allocation gate: in
// a warm stream a boot, its query's completion and a customer's terminates
// allocate nothing, whichever optimizations are on. Each launched query
// rides a recycled flight record and Boot's scratch list, and the live
// queue is reused in place.
func TestBootPathAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{{}, {Cache: true}, {Batch: true}, {Cache: true, Batch: true}} {
		t.Run(fmt.Sprintf("cache=%t,batch=%t", cfg.Cache, cfg.Batch), func(t *testing.T) {
			vb, fe := newFrontend(t, 64, cfg)
			step := streamStep(t, vb, fe)
			for i := 0; i < 4000; i++ {
				step()
			}
			if got := testing.AllocsPerRun(2000, step); got != 0 {
				t.Errorf("a warm boot/terminate step allocates %v objects; want 0", got)
			}
			settle(vb)
			if fe.Unresolved() != 0 {
				t.Fatalf("unresolved = %d after settle", fe.Unresolved())
			}
		})
	}
}

// idleGapStep returns one step of a serving stream that drains the gateway
// to idle between bursts over eight customers: boots for the next four in
// turn at one instant, a second of virtual time in which every query
// resolves, and terminates down to four VMs for each customer that holds
// more.
func idleGapStep(t *testing.T, vb *core.VBundle, fe *Frontend) func() {
	customers := make([]string, 8)
	for i := range customers {
		customers[i] = fmt.Sprintf("tenant-%d", i)
	}
	next := 0
	return func() {
		for range 4 {
			if _, err := fe.Boot(customers[next%len(customers)], 1, testRes, testLim); err != nil {
				t.Fatal(err)
			}
			next++
		}
		vb.RunFor(time.Second)
		if fe.Unresolved() != 0 {
			t.Fatalf("%d boots unresolved a second after their burst", fe.Unresolved())
		}
		for _, c := range customers {
			for fe.Live(c) > 4 {
				fe.Terminate(c)
			}
		}
	}
}

// TestIdleGapBootsAllocateNothing is the serving request's allocation gate
// for a gateway that goes idle between bursts: once warm, a burst of four
// concurrent boots, their queries' completions and the terminates after
// allocate nothing, whichever optimizations are on. The boot envelopes the
// burst needs stay banked across the idle gap with their backings.
func TestIdleGapBootsAllocateNothing(t *testing.T) {
	for _, cfg := range []Config{{}, {Cache: true}, {Batch: true}, {Cache: true, Batch: true}} {
		t.Run(fmt.Sprintf("cache=%t,batch=%t", cfg.Cache, cfg.Batch), func(t *testing.T) {
			vb, fe := newFrontend(t, 64, cfg)
			step := idleGapStep(t, vb, fe)
			for i := 0; i < 1000; i++ {
				step()
			}
			if got := testing.AllocsPerRun(1000, step); got != 0 {
				t.Errorf("a warm burst with an idle gap allocates %v objects; want 0", got)
			}
		})
	}
}

// TestFreshCustomersAllocateOnlySlabChunks is the customer bookkeeping's
// allocation gate: customers the front end has not met, one after another,
// each running up to twice its record's inline slots plus one VMs and
// terminating back down, cost a slab chunk's share of an object each. The
// records come out of the front end's slab, and a live queue that outgrows
// its inline slots takes its ring from the front end's pool and banks it
// when it drains, for the next customer. Measured as the objects each
// customer past 2048 adds, up to 4096, so what a front end costs once drops
// out.
func TestFreshCustomersAllocateOnlySlabChunks(t *testing.T) {
	const small, large, peak, ceiling = 2048, 4096, 2*liveInline + 1, 0.05
	objects := func(customers int) uint64 {
		vb, fe := newFrontend(t, 64, Config{})
		names := make([]string, customers)
		vms := make([]cluster.VMID, 0, customers*peak)
		for i := range names {
			names[i] = fmt.Sprintf("tenant-%d", i)
			for range peak {
				vm, err := vb.Cluster.CreateVM(names[i], testRes, testLim)
				if err != nil {
					t.Fatal(err)
				}
				vms = append(vms, vm.ID)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, name := range names {
			cs := fe.state(name)
			for _, vm := range vms[i*peak : (i+1)*peak] {
				fe.inFlight++
				fe.resolve(cs, vm, placement.Result{}, nil)
			}
			if len(cs.live) <= liveInline {
				t.Fatalf("%s runs %d VMs in a ring of %d", name, cs.n, len(cs.live))
			}
			for range peak {
				if _, _, ok := fe.Terminate(name); !ok {
					t.Fatalf("%s: a terminate missed", name)
				}
			}
			if &cs.live[0] != &cs.inline[0] {
				t.Fatalf("%s drained and kept a pooled ring of %d", name, len(cs.live))
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	a, b := objects(small), objects(large)
	perCustomer := float64(b-a) / (large - small)
	t.Logf("%d objects for %d customers, %d for %d: %.4f a customer past %d", a, small, b, large, perCustomer, small)
	if perCustomer > ceiling {
		t.Fatalf("each fresh customer past %d costs %.4f objects; the ceiling is %v", small, perCustomer, ceiling)
	}
}

// TestLiveQueueMatchesSortedModel holds the head-indexed live queue to the
// shape it replaced, a sorted slice whose front Terminate removed: seeded
// interleavings of completions (in any order, so a VM can resolve after a
// younger one was already terminated) and terminates free the same VMs in
// the same order and miss as often. The queue's capacity stays within the
// inline slots or twice the peak running count plus one, whichever is more.
func TestLiveQueueMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		vb, fe := newFrontend(t, 16, Config{})
		rng := rand.New(rand.NewSource(seed))
		cs := fe.state("acme")
		var pending []*cluster.VM // created, not yet resolved
		var model []cluster.VMID  // sorted running ids
		var maxTerminated cluster.VMID
		misses, late, peak := 0, 0, 0
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				vm, err := vb.Cluster.CreateVM("acme", testRes, testLim)
				if err != nil {
					t.Fatal(err)
				}
				fe.inFlight++
				pending = append(pending, vm)
			case r < 7 && len(pending) > 0:
				k := rng.Intn(len(pending))
				vm := pending[k]
				pending = append(pending[:k], pending[k+1:]...)
				if vm.ID < maxTerminated {
					late++
				}
				fe.resolve(cs, vm.ID, placement.Result{}, nil)
				i := sort.Search(len(model), func(i int) bool { return model[i] > vm.ID })
				model = append(model[:i], append([]cluster.VMID{vm.ID}, model[i:]...)...)
			default:
				id, _, ok := fe.Terminate("acme")
				if len(model) == 0 {
					misses++
					if ok {
						t.Fatalf("seed %d step %d: terminated %d, model holds nothing", seed, step, id)
					}
					break
				}
				if !ok || id != model[0] {
					t.Fatalf("seed %d step %d: terminated %d (ok %t), model frees %d", seed, step, id, ok, model[0])
				}
				model = model[1:]
				if id > maxTerminated {
					maxTerminated = id
				}
			}
			if len(model) > peak {
				peak = len(model)
			}
			if fe.Live("acme") != len(model) {
				t.Fatalf("seed %d step %d: %d live, model %d", seed, step, fe.Live("acme"), len(model))
			}
			if cap(cs.live) > max(liveInline, 2*peak+1) {
				t.Fatalf("seed %d step %d: cap(live) %d over max(%d inline slots, 2 × peak %d + 1)", seed, step, cap(cs.live), liveInline, peak)
			}
		}
		if got := fe.Stats().TerminateMisses; got != misses {
			t.Fatalf("seed %d: %d misses, model %d", seed, got, misses)
		}
		if late == 0 {
			t.Fatalf("seed %d: no completion arrived after a younger VM was terminated", seed)
		}
		// A customer whose running count r holds steady reuses its queue in
		// place: a boot and a terminate a round move it into no other ring
		// once the first round has settled it, pooled or inline.
		for _, vm := range pending {
			fe.resolve(cs, vm.ID, placement.Result{}, nil)
		}
		warm := fe.Live("acme") + 1
		var backing *cluster.VMID
		for round := 0; round < warm+1000; round++ {
			vm, err := vb.Cluster.CreateVM("acme", testRes, testLim)
			if err != nil {
				t.Fatal(err)
			}
			fe.inFlight++
			fe.resolve(cs, vm.ID, placement.Result{}, nil)
			fe.Terminate("acme")
			if round == warm {
				backing = &cs.live[:cap(cs.live)][0]
			} else if round > warm && &cs.live[:cap(cs.live)][0] != backing {
				t.Fatalf("seed %d: the live queue of %d VMs was reallocated in steady round %d", seed, warm-1, round)
			}
		}
	}
}

// TestFlightRecordsRecycleOnceUnderLoss churns a cached, batched front end
// on a lossy network, so queries time out and their late answers arrive
// after the record went back. The churn is Step-driven, and poisoned, every
// banked record is overwritten after every event: a record read after it
// went back, or banked twice, changes what the run computes or panics. The
// sweeps take the flight records, their batches' pool and the live queues'
// pool, the DHT's boot envelopes and its backing pools (DHT.Poison), the
// records of destroyed VMs (freedVMs), and every engine Local, among them
// the network's pools of inbox rings; a flash crowd of forty tenants every
// 500 steps parks more messages at the gateway than its inbox's two slab
// slots, so those pools hold rings to poison. Every boot is accounted for
// once, and after the drain of the untouched run every record made lies on
// the free list, emptied.
func TestFlightRecordsRecycleOnceUnderLoss(t *testing.T) {
	var untouched *Frontend
	sim.CheckPoisoned(t, []int{1}, func(_ int, p *sim.Poisoner) string {
		vb, err := core.New(core.Options{Topology: testSpec(64), Seed: 3, MessageLoss: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		fe, err := New(vb, Config{Cache: true, Batch: true, MaxBatch: 4, MaxInFlight: 128})
		if err != nil {
			t.Fatal(err)
		}
		p.Watch(&fe.flights)
		rings := &counted{poison: func(uint64) int { return fe.backings.Poison(poisonVM) }}
		batches := &counted{poison: func(uint64) int { return fe.batchBackings.Poison(poisonVM) }}
		envelopes := &counted{poison: fe.dht.Poison}
		freed := &counted{poison: (&freedVMs{cl: vb.Cluster}).Poison}
		for _, c := range []*counted{rings, batches, envelopes, freed} {
			p.Watch(c)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 3000; i++ {
			p.RunUntil(vb.Engine, vb.Now()+time.Duration(1+rng.Intn(100))*time.Millisecond)
			c := fmt.Sprintf("tenant-%d", rng.Intn(12))
			fe.Boot(c, 1+rng.Intn(3), testRes, testLim) // a shed is counted, not fatal
			if i%500 == 250 {
				for k := range 40 {
					fe.Boot(fmt.Sprintf("flash-%d-%d", i, k), 1, testRes, testLim)
				}
			}
			// Tenants keep up to twelve VMs for 250 boots, then two, so
			// live queues outgrow their inline slots and drain back.
			keep := 12
			if i/250%2 == 1 {
				keep = 2
			}
			for fe.Live(c) > keep {
				fe.Terminate(c)
			}
		}
		p.RunUntil(vb.Engine, vb.Now()+2*time.Minute)

		s := fe.Stats()
		if s.Placed+s.Failed+s.Shed != s.Requested {
			t.Fatalf("placed %d + failed %d + shed %d != requested %d", s.Placed, s.Failed, s.Shed, s.Requested)
		}
		if fe.Unresolved() != 0 {
			t.Fatalf("unresolved = %d after the drain", fe.Unresolved())
		}
		if fe.dht.Timeouts() == 0 {
			t.Fatal("no query timed out: the loss never left an answer late")
		}
		if untouched == nil {
			untouched = fe
		} else {
			t.Logf("%d live-queue rings, %d flight batches, %d boot envelopes and their backings, %d destroyed VMs' records poisoned",
				rings.poisoned, batches.poisoned, envelopes.poisoned, freed.poisoned)
			if p.Swept["*simnet.ringPool"] == 0 || freed.poisoned == 0 {
				t.Errorf("the sweeps poisoned %d inbox rings and %d destroyed VMs' records: the scenario exercises neither bank",
					p.Swept["*simnet.ringPool"], freed.poisoned)
			}
		}
		return fmt.Sprintf("%+v\n%d records made\n", s, fe.nflights)
	})
	fe := untouched
	for i := range fe.nflights {
		fl := fe.flights.Take()
		if fl.f == nil {
			t.Fatalf("%d records on the free list, %d made", i, fe.nflights)
		}
		if fl.batch != nil || fl.cs != nil || fl.remaining != 0 {
			t.Fatalf("banked record not emptied: a batch of %d, cs %v, %d remaining", len(fl.batch), fl.cs, fl.remaining)
		}
	}
	if fe.nflights < 2 {
		t.Fatalf("%d records made: the churn never had two queries in flight", fe.nflights)
	}
}
