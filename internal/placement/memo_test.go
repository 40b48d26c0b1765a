package placement

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/simnet"
)

// memoRig is a DHT with the resolution cache attached. With forget set the
// walk memo is emptied before every query, which leaves the cache's other
// half alone: the rig then behaves as the gateway did before walks were
// resumable — one direct hop to the rendezvous, the classic walk from there —
// and is what the resumed walk is held against.
type memoRig struct {
	*world
	d      *DHT
	forget bool
}

func newMemoRig(t *testing.T, racks, perRack int, nicMbps float64, forget bool) *memoRig {
	t.Helper()
	w := newWorld(t, racks, perRack, nicMbps)
	r := &memoRig{world: w, d: NewDHT(w.ring, w.cl, DHTConfig{}), forget: forget}
	r.d.SetCache(NewResolutionCache())
	return r
}

func (r *memoRig) memo(customer string) *walkMemo {
	if e := r.d.cache.entries[customer]; e != nil {
		return &e.memo
	}
	return nil
}

// launch starts one batched query of n VMs à 100 Mbps; servers[i] is filled
// in when the answer arrives, -1 for a VM that failed.
func (r *memoRig) launch(t *testing.T, customer string, n int) (servers []int, hops *int) {
	t.Helper()
	if m := r.memo(customer); m != nil && r.forget {
		*m = walkMemo{}
	}
	vms := make([]cluster.VMID, n)
	servers = make([]int, n)
	for i := range vms {
		vm, err := r.cl.CreateVM(customer, bwRes(100), bwRes(200))
		if err != nil {
			t.Fatal(err)
		}
		vms[i], servers[i] = vm.ID, -2
	}
	hops = new(int)
	r.d.PlaceBatch(vms, resolveFunc(func(i int, res Result, err error) {
		servers[i] = -1
		if err == nil {
			servers[i] = res.Server
			*hops += res.Hops
		}
	}))
	return servers, hops
}

func (r *memoRig) boot(t *testing.T, customer string, n int) (servers []int, hops int) {
	t.Helper()
	servers, h := r.launch(t, customer, n)
	r.engine.Run()
	for i, s := range servers {
		if s == -2 {
			t.Fatalf("vm %d of the batch was never answered", i)
		}
	}
	return servers, *h
}

// TestResumedWalkPlacesWhereClassicWalkDoes is the memo's first invariant:
// while nothing is freed, resuming changes nothing but the cost. The classic
// walk re-derives, one message a server, exactly the visited list the memo
// stores, and arrives at the frontier in the state the resumed walk starts in:
// every VM of every query lands on the same server, in strictly fewer hops.
func TestResumedWalkPlacesWhereClassicWalkDoes(t *testing.T) {
	memo := newMemoRig(t, 128, 8, 400, false) // 1024 servers, 4 VMs each
	classic := newMemoRig(t, 128, 8, 400, true)
	rng := rand.New(rand.NewSource(5))
	memoHops, classicHops := 0, 0
	for q := 0; q < 150; q++ {
		n := 1 + rng.Intn(6)
		got, gh := memo.boot(t, "Accolade", n)
		want, wh := classic.boot(t, "Accolade", n)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: resumed walk placed on %v, classic walk on %v", q, got, want)
		}
		memoHops += gh
		classicHops += wh
	}
	if memoHops >= classicHops {
		t.Fatalf("resumed walks took %d hops in all, classic walks %d: want fewer", memoHops, classicHops)
	}
	ws := memo.d.Walk()
	if ws.Resumed != 149 || ws.Fallbacks != 0 {
		t.Fatalf("%d of 150 queries resumed, %d fell back; want 149 and 0", ws.Resumed, ws.Fallbacks)
	}
	if got := classic.d.Walk().Resumed; got != 0 {
		t.Fatalf("the reference rig resumed %d walks", got)
	}
	// The walk explains itself: every forward hop is a route, stop or walk
	// hop. (Were the gateway in the region, a visit to it and an answer from
	// it would be counted and cost no message.)
	if m := memo.memo("Accolade"); m.visited.Has(memo.d.Gateway().Addr()) {
		t.Fatal("the gateway is in the tenant's region: pick another tenant")
	}
	var msgs int
	for _, c := range memo.ring.Network().AllCounters() {
		msgs += c.MsgsSent
	}
	forward := ws.HopsRoute + ws.HopsStop + ws.HopsWalk
	if int64(msgs) != forward+150 { // + one answer a query
		t.Fatalf("network carried %d messages, the walk counters account for %d forward hops and 150 answers", msgs, forward)
	}
}

// TestResumedWalkFallsBackToClassicWalk is the second invariant: a memo may
// cost hops, never a placement. Holes opened behind the frontier without the
// gateway hearing of it are invisible to a resumed walk; once the servers
// around the frontier are all in its list it has nowhere to go, falls back,
// and places where — and only where — the classic walk places.
func TestResumedWalkFallsBackToClassicWalk(t *testing.T) {
	memo := newMemoRig(t, 4, 4, 100, false) // 16 servers, one VM each
	classic := newMemoRig(t, 4, 4, 100, true)
	rigs := []*memoRig{memo, classic}
	bootBoth := func(step string, n int) []int {
		t.Helper()
		got, _ := memo.boot(t, "X", n)
		want, _ := classic.boot(t, "X", n)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: resumed walk placed on %v, classic walk on %v", step, got, want)
		}
		return got
	}
	var placed []int
	for i := 0; i < 16; i++ {
		placed = append(placed, bootBoth("fill", 1)...)
	}
	if got := memo.d.Walk().Fallbacks; got != 0 {
		t.Fatalf("%d walks fell back while the cluster still had room ahead of the frontier", got)
	}
	// Full: the resumed walk dead-ends at the frontier, falls back, and fails
	// as the classic walk does (TestDHTSpillExhaustionReportsError's case).
	if got := bootBoth("full", 1); got[0] != -1 {
		t.Fatalf("a boot into a full cluster landed on server %d", got[0])
	}
	if got := memo.d.Walk().Fallbacks; got != 1 {
		t.Fatalf("%d walks fell back on a full cluster, want 1", got)
	}
	// Two holes the memo knows nothing of: the third and tenth server filled.
	for _, r := range rigs {
		for _, s := range []int{placed[2], placed[9]} {
			if _, ok := r.cl.Unplace(r.cl.Server(s).VMs()[0].ID); !ok {
				t.Fatalf("server %d hosted nothing", s)
			}
		}
	}
	if got := bootBoth("holes", 3); got[0] != placed[2] || got[1] != placed[9] || got[2] != -1 {
		t.Fatalf("three boots into two holes landed on %v, want [%d %d -1]", got, placed[2], placed[9])
	}
	_, _, _, memoFails := memo.d.Stats()
	_, _, _, classicFails := classic.d.Stats()
	if memoFails != 2 || classicFails != 2 {
		t.Fatalf("%d VMs failed with the memo, %d without; want 2 and 2", memoFails, classicFails)
	}
}

// TestConcurrentQueriesBothResume: a busy customer has several queries in
// flight, so launching one must leave the memo in place for the next. (Taking
// it sent every second query of a full batch the whole way round.)
func TestConcurrentQueriesBothResume(t *testing.T) {
	r := newMemoRig(t, 8, 8, 400, false)
	for i := 0; i < 10; i++ {
		r.boot(t, "Accolade", 4) // ten servers filled, the frontier well out
	}
	if _, ok := r.cl.Unplace(r.cl.VMsOf("Accolade")[0].ID); !ok {
		t.Fatal("nothing to free")
	}
	home := r.memo("Accolade").visited.At(0)
	r.d.cache.Freed("Accolade", int(home))
	visited := r.memo("Accolade").visited.Len()
	first, firstHops := r.launch(t, "Accolade", 2)
	if got := r.memo("Accolade").visited.Len(); got != visited {
		t.Fatalf("launching a query left %d of the memo's %d visited servers", got, visited)
	}
	if got := len(r.memo("Accolade").freed); got != 0 {
		t.Fatalf("launching a query left %d freed servers listed, want them taken", got)
	}
	second, secondHops := r.launch(t, "Accolade", 2)
	r.engine.Run()
	if got := r.d.Walk().Resumed; got != 9+2 {
		t.Fatalf("%d queries resumed, want the nine sequential ones and both concurrent ones", got)
	}
	// The first goes back for the hole, the second straight to the frontier;
	// neither re-walks the ten full servers between.
	if first[0] != int(home) {
		t.Fatalf("the freed slot on server %d went unused: first query placed on %v", home, first)
	}
	for _, s := range append(first, second...) {
		if s < 0 {
			t.Fatalf("concurrent resumed queries placed on %v and %v", first, second)
		}
	}
	if *firstHops > 2*4 || *secondHops > 2*3 {
		t.Fatalf("concurrent resumed queries took %d and %d hops over two VMs each", *firstHops, *secondHops)
	}
}

// TestInvalidateDropsTheWalkMemo: the memo lives and dies with the cache
// entry. A migration hook's Invalidate, or the timeout of a query sent
// straight to a frontier that has died, drops both, and the next boot takes
// the full route and walks from the rendezvous.
func TestInvalidateDropsTheWalkMemo(t *testing.T) {
	r := newMemoRig(t, 8, 8, 400, false)
	r.d.cfg.QueryTimeout = 2 * time.Second
	fill := func() {
		t.Helper()
		for i := 0; i < 6; i++ {
			if s, _ := r.boot(t, "Accolade", 4); s[3] < 0 {
				t.Fatalf("fill: placed on %v", s)
			}
		}
	}
	fill()
	routed, resumed := r.d.Walk().HopsRoute, r.d.Walk().Resumed
	if routed == 0 || resumed != 5 {
		t.Fatalf("set-up: %d route hops, %d resumed queries; want one routed query and five resumed", routed, resumed)
	}

	r.d.cache.Invalidate("Accolade") // what serve wires to the migration hooks
	if r.memo("Accolade") != nil {
		t.Fatal("Invalidate left the walk memo behind")
	}
	r.boot(t, "Accolade", 1)
	if r.d.Walk().HopsRoute == routed || r.d.Walk().Resumed != resumed {
		t.Fatalf("the boot after an invalidation: %d new route hops, %d resumed; want a routed, classic walk",
			r.d.Walk().HopsRoute-routed, r.d.Walk().Resumed-resumed)
	}

	fill()
	routed, resumed = r.d.Walk().HopsRoute, r.d.Walk().Resumed
	frontier := r.memo("Accolade").frontier
	if frontier == r.d.Gateway().Addr() || frontier == r.memo("Accolade").visited.At(0) {
		t.Fatalf("frontier %d is the gateway or the rendezvous: the scenario tests nothing", frontier)
	}
	r.ring.Network().Crash(frontier)
	if s, _ := r.boot(t, "Accolade", 1); s[0] != -1 {
		t.Fatalf("a boot sent to a dead frontier landed on server %d", s[0])
	}
	if r.d.Timeouts() != 1 || r.memo("Accolade") != nil {
		t.Fatalf("%d timeouts, memo kept = %v; want the timeout to drop the entry", r.d.Timeouts(), r.memo("Accolade") != nil)
	}
	r.ring.Network().Attach(frontier, r.ring.Node(int(frontier)))
	if s, _ := r.boot(t, "Accolade", 1); s[0] < 0 {
		t.Fatal("the boot after the timeout failed")
	}
	if r.d.Walk().HopsRoute == routed || r.d.Walk().Resumed != resumed { // the counters see answered queries only
		t.Fatalf("the boot after a timeout: %d new route hops, %d resumed; want a routed, classic walk",
			r.d.Walk().HopsRoute-routed, r.d.Walk().Resumed-resumed)
	}
}

// TestFreedServerOutsideTheMemoIsVisitedOnce: a stop the memo's list does not
// hold (a newer walk replaced the memo since the server was freed) is added
// at the stop, so the walk that continues from the frontier cannot come to it
// a second time — the visited set takes an address once.
func TestFreedServerOutsideTheMemoIsVisitedOnce(t *testing.T) {
	r := newMemoRig(t, 8, 8, 400, false)
	for i := 0; i < 3; i++ {
		r.boot(t, "Accolade", 4)
	}
	m := r.memo("Accolade")
	outside := simnet.Addr(-1)
	for s := 0; s < r.cl.Size(); s++ {
		if !m.visited.Has(simnet.Addr(s)) && s != gatewayServer {
			outside = simnet.Addr(s)
			break
		}
	}
	// Fill it, so the stop admits nothing and the query walks on.
	for i := 0; i < 4; i++ {
		vm, err := r.cl.CreateVM("filler", bwRes(100), bwRes(200))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.cl.Place(vm, int(outside)); err != nil {
			t.Fatal(err)
		}
	}
	r.d.cache.Freed("Accolade", int(outside))
	if s, _ := r.boot(t, "Accolade", 40); s[39] < 0 {
		t.Fatalf("placed on %v", s)
	}
	m = r.memo("Accolade")
	seen := make(map[simnet.Addr]bool)
	for i := 0; i < m.visited.Len(); i++ {
		if seen[m.visited.At(i)] {
			t.Fatalf("server %d is in the visited list twice", m.visited.At(i))
		}
		seen[m.visited.At(i)] = true
	}
	if !seen[outside] {
		t.Fatalf("the stop at server %d is not in the visited list", outside)
	}
}
