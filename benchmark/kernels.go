package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/placement"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/store"
	"vbundle/internal/tcshape"
)

// The unit-cost kernels: one isolated loop per layer, each driving only the
// layer's exported entry point at the workload's ring size. A kernel runs
// kernelBatches batches and reports the fastest, in nanoseconds per
// operation. Layers nest — a pastry hop contains a simnet delivery, which
// contains an engine pop — so the unit costs overlap and the shares the
// report derives from them (count × unit cost / run_s) are estimates, not
// self times.
const kernelBatches = 5

// minBatch runs batch kernelBatches times and returns the fastest
// per-operation time in ns; batch returns how many operations it timed and
// how long they took.
func minBatch(batch func() (ops int, d time.Duration)) float64 {
	best := math.Inf(1)
	for i := 0; i < kernelBatches; i++ {
		ops, d := batch()
		if ops == 0 {
			continue
		}
		if ns := float64(d) / float64(ops); ns < best {
			best = ns
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// kernelOps bounds a batch: enough operations to time, few enough that all
// seven kernels together stay near a second.
const kernelOps = 20000

// runKernels measures every unit cost at the given ring size. withCluster
// adds the placement kernel, which needs a cluster above the ring.
func runKernels(servers int, withCluster bool) (map[string]float64, error) {
	saveNs, err := kernelStoreSave()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"sim.pop_ns":          kernelSimPop(servers),
		"simnet.deliver_ns":   kernelSimnetDeliver(servers),
		"tcshape.allocate_ns": kernelTcshapeAllocate(),
		"store.save_ns":       saveNs,
	}
	st, err := buildLadder(&env{}, servers, nil)
	if err != nil {
		return nil, err
	}
	out["pastry.route_ns"] = kernelPastryRoute(st)
	out["scribe.anycast_ns"] = kernelScribeAnycast(st)
	if withCluster {
		ns, err := kernelPlacementBoot(st)
		if err != nil {
			return nil, err
		}
		out["placement.boot_ns"] = ns
	}
	return out, nil
}

// kernelSimPop times Engine.Run over a queue preloaded with one event per
// server at scattered instants: the cost of popping and dispatching one
// event at the workload's queue depth.
func kernelSimPop(servers int) float64 {
	rng := rand.New(rand.NewSource(1))
	return minBatch(func() (int, time.Duration) {
		eng := sim.NewEngine(engineSeed)
		fn := func() {}
		for i := 0; i < servers; i++ {
			eng.At(time.Duration(rng.Int63n(int64(time.Second))), fn)
		}
		start := time.Now()
		eng.Run()
		return servers, time.Since(start)
	})
}

// kernelSimnetDeliver times Network.Send plus the delivery it schedules,
// between random pairs of a network of the workload's size.
func kernelSimnetDeliver(servers int) float64 {
	rng := rand.New(rand.NewSource(2))
	eng := sim.NewEngine(engineSeed)
	net := simnet.New(eng, servers, func(a, b simnet.Addr) time.Duration { return time.Millisecond })
	sink := simnet.HandlerFunc(func(simnet.Addr, simnet.Message) {})
	for a := 0; a < servers; a++ {
		net.Attach(simnet.Addr(a), sink)
	}
	msg := struct{}{}
	return minBatch(func() (int, time.Duration) {
		start := time.Now()
		for i := 0; i < kernelOps; i++ {
			net.Send(simnet.Addr(rng.Intn(servers)), simnet.Addr(rng.Intn(servers)), msg)
		}
		eng.Run()
		return kernelOps, time.Since(start)
	})
}

// hopCounter is a pastry application that counts the hops of what it is
// delivered.
type hopCounter struct {
	pastry.BaseApp
	hops *int
}

func (h hopCounter) Deliver(_ ids.Id, _ simnet.Message, info pastry.RouteInfo) { *h.hops += info.Hops }

// kernelPastryRoute times Node.Route for random keys from random nodes of
// the built ring, per overlay hop (each hop includes the transport under
// it).
func kernelPastryRoute(st *ladderStack) float64 {
	const app = "bench-route"
	rng := rand.New(rand.NewSource(3))
	hops := 0
	for _, n := range st.ring.Nodes() {
		n.Register(app, hopCounter{hops: &hops})
	}
	size := st.ring.Size()
	return minBatch(func() (int, time.Duration) {
		hops = 0
		start := time.Now()
		for i := 0; i < kernelOps; i++ {
			st.ring.Node(rng.Intn(size)).Route(ids.Random(rng), app, nil)
		}
		st.engine.Run()
		return hops, time.Since(start)
	})
}

// kernelScribeAnycast times Scribe.Anycast from random nodes into a group
// one node in sixteen has joined and whose every member accepts, per
// any-cast (route toward the group, tree walk, verdict back).
func kernelScribeAnycast(st *ladderStack) float64 {
	group := scribe.GroupKey("bench-anycast")
	accept := scribe.Handlers{OnAnycast: func(ids.Id, simnet.Message, pastry.NodeHandle) bool { return true }}
	for i := 0; i < len(st.scribes); i += 16 {
		st.scribes[i].Join(group, accept)
	}
	st.engine.Run()
	rng := rand.New(rand.NewSource(4))
	return minBatch(func() (int, time.Duration) {
		accepted := 0
		start := time.Now()
		for i := 0; i < kernelOps/4; i++ {
			st.scribes[rng.Intn(len(st.scribes))].Anycast(group, nil, func(r scribe.AnycastResult) {
				if r.Accepted {
					accepted++
				}
			})
		}
		st.engine.Run()
		return accepted, time.Since(start)
	})
}

// kernelPlacementBoot times DHT.Place for singleton boots of 64 rotating
// customers, per placement (route, admit, reply). Every batch starts from an
// empty cluster: its VMs are destroyed, untimed, once it has been measured.
func kernelPlacementBoot(st *ladderStack) (float64, error) {
	cl := cluster.New(st.ring.Topology(), cluster.Resources{CPU: 16, MemMB: 16384, BandwidthMbps: st.ring.Topology().NICMbps()})
	dht := placement.NewDHT(st.ring, cl, placement.DHTConfig{})
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 20}
	boots := kernelOps / 4
	if most := 4 * cl.Size(); boots > most {
		boots = most
	}
	var firstErr error
	ns := minBatch(func() (int, time.Duration) {
		vms := make([]*cluster.VM, 0, boots)
		placed := 0
		start := time.Now()
		for i := 0; i < boots; i++ {
			vm, err := cl.CreateVM(fmt.Sprintf("bench-%d", i%64), rsv, lim)
			if err != nil {
				firstErr = err
				break
			}
			vms = append(vms, vm)
			dht.Place(vm, func(_ placement.Result, err error) {
				if err == nil {
					placed++
				} else if firstErr == nil {
					firstErr = err
				}
			})
		}
		st.engine.Run()
		d := time.Since(start)
		for _, vm := range vms {
			cl.Terminate(vm.ID)
		}
		return placed, d
	})
	return ns, firstErr
}

// kernelTcshapeAllocate times tcshape.Allocate for one server's ten VMs on
// a saturated NIC.
func kernelTcshapeAllocate() float64 {
	classes := make([]tcshape.Class, 10)
	for i := range classes {
		classes[i] = tcshape.Class{Rate: 10, Ceil: 1000, Demand: 60 + 10*float64(i)}
	}
	return minBatch(func() (int, time.Duration) {
		start := time.Now()
		for i := 0; i < kernelOps; i++ {
			kernelSink += tcshape.Allocate(1000, classes)[0]
		}
		return kernelOps, time.Since(start)
	})
}

// kernelSink keeps the compiler from discarding a kernel's result.
var kernelSink float64

// kernelStoreSave times MemStore.SavePlacements for one server's ten
// placement records: the write-through a cluster mutation pays.
func kernelStoreSave() (float64, error) {
	st := store.NewMem()
	recs := make([]store.PlacementRecord, 10)
	for i := range recs {
		recs[i] = store.PlacementRecord{VM: int64(i + 1), Customer: "bundle", Server: 7}
	}
	var firstErr error
	ns := minBatch(func() (int, time.Duration) {
		start := time.Now()
		for i := 0; i < kernelOps; i++ {
			if err := st.SavePlacements(i%512, recs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return kernelOps, time.Since(start)
	})
	return ns, firstErr
}
