package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// --- reference model ----------------------------------------------------------

// refAgent is the spill walk as it stood before the visited index: membership
// by a linear scan of the visited list comparing nodeIds, candidates read
// from copies of the node's sets through a closure, admission re-summing the
// server's reservations for every VM. It shares the envelope, the reply and
// the gateway side with dhtAgent, so the two differ in the walk and in
// nothing else.
type refAgent struct{ dhtAgent }

func (a *refAgent) Deliver(_ ids.Id, payload simnet.Message, info pastry.RouteInfo) {
	q := payload.(*bootQuery)
	q.Home = a.node.Handle()
	q.Spill += info.Hops
	a.tryAdmit(q)
}

func (a *refAgent) HandleDirect(_ pastry.NodeHandle, payload simnet.Message) {
	m := payload.(*bootQuery)
	if m.Done {
		a.d.finish(m)
		return
	}
	m.Spill++
	a.tryAdmit(m)
}

func (a *refAgent) tryAdmit(q *bootQuery) {
	q.Visited.Add(a.node.Addr())
	srv := a.d.cl.Server(a.server)
	unplaced := 0
	for i, vm := range q.VMs {
		if q.Servers[i] >= 0 {
			continue
		}
		if srv.CanAdmit(vm) {
			if err := a.d.cl.Place(vm, a.server); err == nil {
				q.Servers[i] = int32(a.server)
				q.HopsAt[i] = int32(q.Spill)
				continue
			}
		}
		unplaced++
	}
	if unplaced == 0 || q.Spill >= a.d.cfg.MaxSpillHops {
		a.reply(q)
		return
	}
	next := a.nextSpillTarget(q)
	if next.IsNil() {
		a.reply(q)
		return
	}
	a.node.SendDirect(next, AppName, q)
}

func (a *refAgent) visited(q *bootQuery, id ids.Id) bool {
	for i := 0; i < q.Visited.Len(); i++ {
		if a.d.ring.Node(int(q.Visited.At(i))).ID() == id {
			return true
		}
	}
	return false
}

func (a *refAgent) nextSpillTarget(q *bootQuery) pastry.NodeHandle {
	best := pastry.NoHandle
	var bestLat time.Duration
	self := a.node.Handle()
	consider := func(h pastry.NodeHandle) {
		if h.IsNil() || a.visited(q, h.Id) {
			return
		}
		lat := a.node.LatencyBetween(self.Addr, h.Addr)
		switch {
		case best.IsNil(), lat < bestLat:
			best, bestLat = h, lat
		case lat == bestLat && ids.CloserTo(q.Key, h.Id, best.Id):
			best = h
		}
	}
	neighborhood, ccw, cw := a.node.AdjacentSets()
	for _, set := range [][]int32{neighborhood, ccw, cw} {
		for _, ref := range append([]int32(nil), set...) {
			consider(a.node.HandleOf(ref))
		}
	}
	return best
}

// --- equivalence --------------------------------------------------------------

// walkWorld is 512 servers of four VM slots each under one engine, serial or
// sharded, with either the real agents or the reference ones.
type walkWorld struct {
	*world
	d   *DHT
	ref bool
}

func newWalkWorld(t *testing.T, seed int64, shards int, ref bool) *walkWorld {
	t.Helper()
	w := &walkWorld{world: newWorldOn(t, sim.NewShardedEngine(seed, shards), 64, 8, 400), ref: ref}
	if !ref {
		w.d = NewDHT(w.ring, w.cl, DHTConfig{})
		return w
	}
	w.d = &DHT{
		ring:    w.ring,
		cl:      w.cl,
		cfg:     DHTConfig{}.withDefaults(w.cl.Size()),
		agents:  make([]*dhtAgent, w.ring.Size()),
		pending: make(map[uint64]pendingQuery),
	}
	w.d.timerFn = w.d.onTimer
	for i, node := range w.ring.Nodes() {
		node.Register(AppName, &refAgent{dhtAgent{d: w.d, server: i, node: node}})
	}
	return w
}

// restart crashes server i and brings it back as core.restartNode does: a
// blank node with the same id and address, the placement agent bound again,
// the routing state rejoined from the peers the old node knew.
func (w *walkWorld) restart(i int) {
	old := w.ring.Node(i)
	peers := old.Peers()
	w.ring.Network().Crash(old.Addr())
	node := w.ring.RebuildNode(i)
	if w.ref {
		node.Register(AppName, &refAgent{dhtAgent{d: w.d, server: i, node: node}})
	} else {
		w.d.RebindNode(i)
	}
	node.Rejoin(peers)
}

// walkRecord is what one query did, as far as anything outside the walk can
// tell: where it went, in order, what it answered, and what it weighed.
type walkRecord struct {
	Customer string
	Visited  []simnet.Addr
	Results  []Result
	Failed   []bool
	Wire     int // WireSize() of the answer
}

type trackedQuery struct {
	q    *bootQuery
	vms  []*cluster.VM
	rec  *walkRecord
	done bool
}

// launch is PlaceBatch with the envelope kept in hand, so the walk can be
// read off it when the answer arrives (and while it is still under way).
func (w *walkWorld) launch(vms []*cluster.VM) *trackedQuery {
	tq := &trackedQuery{q: w.d.acquireQuery(), vms: vms, rec: &walkRecord{
		Customer: vms[0].Customer,
		Results:  make([]Result, len(vms)),
		Failed:   make([]bool, len(vms)),
	}}
	for _, vm := range vms {
		tq.q.VMs = append(tq.q.VMs, vm)
		tq.q.Servers = append(tq.q.Servers, -1)
		tq.q.HopsAt = append(tq.q.HopsAt, 0)
	}
	w.d.launch(tq.q, pendingQuery{batch: func(i int, r Result, err error) {
		if !tq.done { // first callback: the envelope is released after the last
			tq.done = true
			for k := 0; k < tq.q.Visited.Len(); k++ {
				tq.rec.Visited = append(tq.rec.Visited, tq.q.Visited.At(k))
			}
			tq.rec.Wire = tq.q.WireSize()
		}
		tq.rec.Results[i], tq.rec.Failed[i] = r, err != nil
	}})
	return tq
}

func (w *walkWorld) netTotals() (msgs, bytes int) {
	for _, c := range w.ring.Network().AllCounters() {
		msgs += c.MsgsSent
		bytes += c.BytesSent
	}
	return msgs, bytes
}

// script drives a world through rounds of concurrent batched boots for two
// tenants whose regions fill up and overlap, random terminates that reopen
// holes behind the walks' frontiers, and — every tenth round — the restart of
// a server that a walk still under way has already visited. Every choice
// comes from rng, so two worlds given the same seed see the same requests as
// long as they answer them the same way.
func (w *walkWorld) script(t *testing.T, seed int64, rounds int) (recs []walkRecord, totals [][2]int, restarts int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	customers := []string{"Accolade", "Beenox"}
	var placed []*cluster.VM
	for round := 0; round < rounds; round++ {
		var flying []*trackedQuery
		for k := 1 + rng.Intn(4); k > 0; k-- {
			customer := customers[rng.Intn(len(customers))]
			vms := make([]*cluster.VM, 1+rng.Intn(6))
			for i := range vms {
				vm, err := w.cl.CreateVM(customer, bwRes(100), bwRes(200))
				if err != nil {
					t.Fatal(err)
				}
				vms[i] = vm
			}
			flying = append(flying, w.launch(vms))
		}
		if round%10 == 9 {
			w.engine.RunFor(20 * time.Millisecond)
			for _, tq := range flying {
				if n := tq.q.Visited.Len(); !tq.done && n >= 3 {
					if victim := int(tq.q.Visited.At(n / 2)); victim != w.d.cfg.Gateway {
						w.restart(victim)
						restarts++
						break
					}
				}
			}
		}
		w.engine.Run()
		for _, tq := range flying {
			if !tq.done {
				t.Fatalf("round %d: query for %s never answered", round, tq.rec.Customer)
			}
			recs = append(recs, *tq.rec)
			for i, vm := range tq.vms {
				if !tq.rec.Failed[i] {
					placed = append(placed, vm)
				}
			}
		}
		msgs, bytes := w.netTotals()
		totals = append(totals, [2]int{msgs, bytes})
		for k := rng.Intn(6); k > 0 && len(placed) > 0; k-- {
			i := rng.Intn(len(placed))
			if _, ok := w.cl.Unplace(placed[i].ID); !ok {
				t.Fatalf("round %d: vm %d was not placed", round, placed[i].ID)
			}
			placed[i] = placed[len(placed)-1]
			placed = placed[:len(placed)-1]
		}
	}
	return recs, totals, restarts
}

// TestSpillWalkMatchesLinearScanReference holds the walk to its reference
// model: on every seed, serial and on two shards, each query must visit the
// same servers in the same order, admit the same VMs at the same hop counts,
// carry the same number of visited entries and the same wire size, and each
// round must have cost the network the same messages and bytes.
func TestSpillWalkMatchesLinearScanReference(t *testing.T) {
	const rounds = 240
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1] // the reference walk is quadratic, and slow under -race
	}
	for _, seed := range seeds {
		ref := newWalkWorld(t, seed, 0, true)
		wantRecs, wantTotals, wantRestarts := ref.script(t, seed, rounds)

		longest := 0
		for _, r := range wantRecs {
			if len(r.Visited) > longest {
				longest = len(r.Visited)
			}
			seen := make(map[simnet.Addr]bool, len(r.Visited))
			for _, a := range r.Visited {
				if seen[a] {
					t.Fatalf("seed %d: reference walk for %s visited server %d twice", seed, r.Customer, a)
				}
				seen[a] = true
			}
		}
		// The scenario must reach what it is there to test: walks that
		// outgrow the envelope's initial index, and mid-walk restarts.
		if longest <= 2*visitedInitCap {
			t.Fatalf("seed %d: longest walk visited %d servers, want > %d", seed, longest, 2*visitedInitCap)
		}
		if wantRestarts == 0 {
			t.Fatalf("seed %d: no server was restarted mid-walk", seed)
		}

		for _, shards := range []int{0, 2} {
			name := fmt.Sprintf("seed %d shards %d", seed, shards)
			w := newWalkWorld(t, seed, shards, false)
			recs, totals, restarts := w.script(t, seed, rounds)
			if restarts != wantRestarts {
				t.Fatalf("%s: %d restarts, reference %d", name, restarts, wantRestarts)
			}
			if len(recs) != len(wantRecs) {
				t.Fatalf("%s: %d queries, reference %d", name, len(recs), len(wantRecs))
			}
			for i := range recs {
				if !reflect.DeepEqual(recs[i], wantRecs[i]) {
					t.Fatalf("%s: query %d diverges from the reference\n got  %+v\n want %+v", name, i, recs[i], wantRecs[i])
				}
				if got, want := recs[i].Wire, 24+8*len(recs[i].Results); got != want {
					t.Fatalf("%s: query %d answer weighs %d B, want %d", name, i, got, want)
				}
			}
			if !reflect.DeepEqual(totals, wantTotals) {
				t.Fatalf("%s: per-round network totals (msgs, bytes) diverge from the reference", name)
			}
		}
	}
}

// --- allocation gate ----------------------------------------------------------

// spillFixture is a cluster of one-VM servers, all full but the one that a
// walk for customer "bench" reaches after exactly hops spill hops: walk
// boots the VM that far, every time, and takes it off again.
type spillFixture struct {
	engine *sim.Engine
	cl     *cluster.Cluster
	d      *DHT
	vm     *cluster.VM
	hops   int

	res  Result
	err  error
	done func(Result, error) // made once: a closure per boot would be an allocation
}

func newSpillFixture(tb testing.TB, hops int) *spillFixture {
	tb.Helper()
	servers := 1024
	for servers < 2*hops {
		servers *= 2
	}
	one := cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100}
	engine, cl, d := benchWorld(tb, servers, cluster.Resources{CPU: 1, MemMB: 1 << 20})
	fillers := make([]*cluster.VM, servers)
	for i := range fillers {
		var err error
		if fillers[i], err = cl.CreateVM("filler", one, one); err != nil {
			tb.Fatal(err)
		}
		if err := cl.Place(fillers[i], i); err != nil {
			tb.Fatal(err)
		}
	}
	vm, err := cl.CreateVM("bench", one, one)
	if err != nil {
		tb.Fatal(err)
	}
	f := &spillFixture{engine: engine, cl: cl, d: d, vm: vm, hops: hops}
	f.done = func(r Result, err error) { f.res, f.err = r, err }

	// Probe: with every server full the walk runs until MaxSpillHops stops
	// it, and its visited list says which server stands hops hops out. The
	// path does not depend on who is full, so freeing that server leaves
	// the walk up to it unchanged.
	f.d.cfg.MaxSpillHops = hops + 16 // the bound counts the route's hops too
	q := f.d.acquireQuery()
	q.VMs = append(q.VMs, vm)
	q.Servers = append(q.Servers, -1)
	q.HopsAt = append(q.HopsAt, 0)
	target := -1
	f.d.launch(q, pendingQuery{single: func(Result, error) {
		if q.Visited.Len() > hops {
			target = int(q.Visited.At(hops))
		}
	}})
	engine.Run()
	if target < 0 {
		tb.Fatalf("probe walk stopped short of %d hops", hops)
	}
	f.d.cfg.MaxSpillHops = cl.Size()
	if _, ok := cl.Unplace(fillers[target].ID); !ok {
		tb.Fatalf("filler on server %d was not placed", target)
	}
	return f
}

func (f *spillFixture) walk(tb testing.TB) {
	f.d.Place(f.vm, f.done)
	f.engine.Run()
	if f.err != nil || f.res.Hops < f.hops {
		tb.Fatalf("walk of %d hops: got %+v, %v", f.hops, f.res, f.err)
	}
	f.cl.Unplace(f.vm.ID)
}

// TestSpillWalkAllocatesNothingPerHop is the allocation gate: with the pools
// warm, a boot that spills over 256 servers may allocate no more than a boot
// admitted at its rendezvous — the walk itself allocates nothing.
func TestSpillWalkAllocatesNothingPerHop(t *testing.T) {
	measure := func(hops int) float64 {
		f := newSpillFixture(t, hops)
		return testing.AllocsPerRun(20, func() { f.walk(t) })
	}
	home, walk := measure(0), measure(256)
	if walk > home {
		t.Fatalf("a 256-hop walk allocates %.0f objects, a boot admitted at home %.0f: %.3f allocations per hop, want 0",
			walk, home, (walk-home)/256)
	}
}
