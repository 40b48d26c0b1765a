package aggregation

import (
	"runtime"
	"testing"
	"time"

	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// firstRoundBytes4096 is what the 4096-server first round below sends in
// all, its tree build and its round together, as the commit before joins and
// leaves became key-only payloads counted it: a message's WireSize is what
// it models on the wire, not what it costs the process, so shrinking the
// message must not move it.
const firstRoundBytes4096 = 1093857

// firstRound builds an overlay of the given size on a serial engine and
// returns what the ladder's measured window allocates on it — every server
// subscribes to one topic, the tree forms, every server sets a value and one
// leaf-to-root round completes — with the bytes it sent and the root's fold.
func firstRound(t *testing.T, servers int) (mallocs uint64, bytes int, root Aggregate) {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks: servers / 32, ServersPerRack: 32, RacksPerPod: 8, NICMbps: 1000, Oversubscription: 8,
		LANHop: 10 * time.Millisecond, LocalDelivery: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	managers := make([]*Manager, ring.Size())
	for i, n := range ring.Nodes() {
		managers[i] = New(scribe.New(n), Config{})
	}
	const topic = "BW_Demand"
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range managers {
		m.Subscribe(topic, nil)
	}
	engine.Run()
	for i, m := range managers {
		m.SetLocal(topic, float64(i))
	}
	engine.Run()
	runtime.ReadMemStats(&after)

	for _, c := range ring.Network().AllCounters() {
		bytes += c.BytesSent
	}
	key := scribe.GroupKey(topic)
	for _, m := range managers {
		if m.sc.IsRoot(key) {
			root, _ = m.subtreeAggregates(m.topic(key)).get(DefaultAttr)
		}
	}
	return after.Mallocs - before.Mallocs, bytes, root
}

// TestFirstRoundAllocatesOnlyFolds is the allocation gate of a cold round:
// the tree build and the first leaf-to-root round, with every bank empty, at
// 4096 and at 8192 servers. Every message of the burst is in flight at once,
// so none of them can reuse another's shell, and every server keeps its
// subtree fold, so none can reuse another's list: the envelope pools, the
// push shells and the fold lists all refill from their engine's slabs, a join
// and a leave are the group key the joiner already holds, and what a server
// past 4096 still costs is the slab chunks' share, 0.02 objects. Before the
// slabs it was 5.01 objects a server: a routed envelope, the join inside it,
// a direct envelope and a push shell besides the fold list, which cost one
// object a server until the lists were banked.
func TestFirstRoundAllocatesOnlyFolds(t *testing.T) {
	const small, large, ceiling = 4096, 8192, 0.05
	a, bytes, rootA := firstRound(t, small)
	b, _, rootB := firstRound(t, large)
	if rootA.Count != small || rootB.Count != large {
		t.Fatalf("the roots folded %d and %d values, want %d and %d", rootA.Count, rootB.Count, small, large)
	}
	if bytes != firstRoundBytes4096 {
		t.Errorf("the %d-server first round sent %d bytes, want %d", small, bytes, firstRoundBytes4096)
	}
	perServer := float64(b-a) / (large - small)
	t.Logf("%d objects at %d servers, %d at %d: %.3f a server past %d", a, small, b, large, perServer, small)
	if perServer > ceiling {
		t.Fatalf("each server past %d costs %.3f objects in the first round; the ceiling is %v", small, perServer, ceiling)
	}
}

// TestLossyRoundsKeepShellsBounded: on 512 servers losing 5 % of their
// messages, with pastry and scribe maintenance on, the heap a forced
// collection leaves may grow at most 128 KB from round 50 to round 400. A
// shell carved from a slab comes back only through a free list, so one the
// network dropped without banking it (simnet.Recycler) would pin its slot
// for good and the lists would refill from new chunks round after round.
func TestLossyRoundsKeepShellsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("400 rounds on 512 servers; run without -short")
	}
	const interval, ceiling = time.Minute, 128 << 10
	engine := sim.NewEngine(7)
	f := newFixtureOn(t, engine, 16, 32, Config{UpdateInterval: interval}, simnet.WithDropRate(0.05))
	for i, m := range f.managers {
		m.Subscribe("BW_Demand", nil)
		m.SetLocal("BW_Demand", float64(i))
	}
	f.ring.StartMaintenance()
	for _, m := range f.managers {
		m.sc.StartMaintenance(20 * time.Second)
		m.Start()
	}
	heapAt := func(round int) uint64 {
		engine.RunUntil(time.Duration(round) * interval)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	from := heapAt(50)
	to := heapAt(400)
	runtime.KeepAlive(f)
	growth := int64(to) - int64(from)
	t.Logf("heap %d B at round 50, %d B at round 400: %+d B", from, to, growth)
	if growth > ceiling {
		t.Fatalf("the heap grew %d B from round 50 to round 400; the ceiling is %d", growth, ceiling)
	}
}
