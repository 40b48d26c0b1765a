package aggregation

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

var shellTopics = []string{"BW_Capacity", "BW_Demand"}

// TestWarmRoundAllocatesNoMessages is the allocation gate of the aggregation
// round: with the shell and fold list banks, the envelope pools and the timing
// wheel warm, a tick → flush → deliver round on 64 servers and two topics
// allocates nothing, whether no value changed or every server's value
// changed. In the second case every subtree is re-folded, at least once a
// server and topic, and each re-fold takes the list a replaced fold gave back
// to its engine's bank when its last reader let go. The two roots' tickers
// stay off: a root's tick also publishes, which makes its list of globals and
// two messages a round however many servers listen, and that is not the path
// gated here.
func TestWarmRoundAllocatesNoMessages(t *testing.T) {
	const interval = time.Minute
	f := newFixtureCfg(t, 8, 8, Config{UpdateInterval: interval})
	for _, m := range f.managers {
		for _, topic := range shellTopics {
			m.Subscribe(topic, nil)
		}
	}
	f.engine.Run()

	// A subtree is re-folded exactly when a flush finds its cache invalid;
	// each Manager counts those.
	totalRefolds := func() (n int) {
		for _, m := range f.managers {
			n += m.refolds
		}
		return n
	}
	for _, m := range f.managers {
		// A root appends one latency sample a flush; give the record its room
		// now so that growing it is not mistaken for a message.
		m.rootLatencies = make([]time.Duration, 0, 4096)
	}

	v := 0.0
	setAll := func() {
		v++
		for i, m := range f.managers {
			for _, topic := range shellTopics {
				m.SetLocal(topic, v+float64(i))
			}
		}
	}
	setAll()
	ticking := 0
	for _, m := range f.managers {
		if !m.sc.IsRoot(m.topics[0].key) && !m.sc.IsRoot(m.topics[1].key) {
			m.Start()
			ticking++
		}
	}
	sent := func() (n int) {
		for _, c := range f.ring.Network().AllCounters() {
			n += c.MsgsSent
		}
		return n
	}
	f.engine.RunFor(2 * interval) // two warm rounds

	// AllocsPerRun counts what the whole process allocates and the runtime
	// adds an object of its own now and then: ten rounds a reading (and one to
	// warm up), of which it reports the mean rounded down.
	const rounds = 10
	before := sent()
	quiet := testing.AllocsPerRun(rounds, func() { f.engine.RunFor(interval) })
	pushes := (sent() - before) / (rounds + 1)
	if want := len(shellTopics) * ticking; pushes != want {
		t.Fatalf("a round sent %d messages, want one push a ticking server and topic, %d", pushes, want)
	}
	if quiet != 0 {
		t.Fatalf("a round of %d pushes with no value changed allocates %.0f objects, want 0", pushes, quiet)
	}

	before = sent()
	refolds := 0
	changed := testing.AllocsPerRun(rounds, func() {
		from := totalRefolds()
		setAll()
		f.engine.RunFor(interval)
		refolds = totalRefolds() - from
	})
	pushes = (sent() - before) / (rounds + 1)
	if refolds < len(shellTopics)*len(f.managers) {
		t.Fatalf("%d re-folds after every value changed, want at least one a server and topic", refolds)
	}
	if changed != 0 {
		t.Fatalf("a round of %d pushes and %d re-folded subtrees with every value changed allocates %.0f objects, want 0",
			pushes, refolds, changed)
	}
}

// pushHook stands in for a manager as its scribe's tree listener: child drops
// go to the manager, pushes to push.
type pushHook struct {
	*Manager
	push func(group ids.Id, payload simnet.Message, from pastry.NodeHandle)
}

func (h pushHook) ParentData(group ids.Id, payload simnet.Message, from pastry.NodeHandle) {
	h.push(group, payload, from)
}

// subtreeSum adds up the local values of the tree below and including server
// i, walking scribe's child edges.
func (f *fixture) subtreeSum(t *testing.T, i int, topic string) float64 {
	t.Helper()
	v, ok := f.managers[i].Local(topic)
	if !ok {
		t.Fatalf("server %d has no local value", i)
	}
	f.managers[i].sc.ForEachChild(scribe.GroupKey(topic), func(c pastry.NodeHandle) {
		v += f.subtreeSum(t, int(c.Addr), topic)
	})
	return v
}

// TestOverlappingPushesKeepTheirValues makes an interior node flush twice
// inside one hop latency, so that two of its pushes are on the wire together.
// Its parent must see both (values, stamp) pairs, each its own, in send order:
// the case that rules out a message owned by its sender, and the one a shell
// banked before its delivery would corrupt (the second flush would take it
// and overwrite what the first is still carrying).
func TestOverlappingPushesKeepTheirValues(t *testing.T) {
	const topic = "BW_Demand"
	f := newFixture(t, 4, 8) // LANHop is 10 ms, the processing delay 1.5 ms
	key := scribe.GroupKey(topic)
	for _, m := range f.managers {
		m.Subscribe(topic, nil)
	}
	f.engine.Run()
	for i, m := range f.managers {
		m.SetLocal(topic, float64(i))
	}
	f.engine.Run()

	interior := -1
	for i, m := range f.managers {
		if m.sc.ChildCount(key) > 0 && !m.sc.IsRoot(key) {
			interior = i
			break
		}
	}
	if interior < 0 {
		t.Fatal("no interior node in the tree")
	}
	child := f.managers[interior]
	parent := f.managers[child.sc.Parent(key).Addr]

	type seen struct {
		shell *upMsg
		sum   float64
		stamp time.Duration
	}
	var got []seen
	parent.sc.SetTreeListener(nil)
	parent.sc.SetTreeListener(pushHook{parent, func(group ids.Id, payload simnet.Message, from pastry.NodeHandle) {
		if up := payload.(*upMsg); from == child.sc.Node().Handle() {
			a, _ := up.Values.get(DefaultAttr)
			got = append(got, seen{shell: up, sum: a.Sum, stamp: up.LeafSentAt})
		}
		parent.ParentData(group, payload, from)
	}})

	t0 := f.engine.Now()
	child.SetLocal(topic, 1000)
	first := f.subtreeSum(t, interior, topic)
	f.engine.RunFor(2 * time.Millisecond) // flushed at 1.5 ms, not yet delivered
	if len(got) != 0 {
		t.Fatal("the first push arrived inside 2 ms")
	}
	child.SetLocal(topic, 2000)
	second := f.subtreeSum(t, interior, topic)
	f.engine.RunFor(2 * time.Millisecond) // second flush at 3.5 ms
	if len(got) != 0 {
		t.Fatal("the first push arrived before the second was sent")
	}
	f.engine.Run()

	want := []seen{{sum: first, stamp: t0}, {sum: second, stamp: t0 + 2*time.Millisecond}}
	if len(got) != len(want) {
		t.Fatalf("the parent saw %d pushes from the interior node, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].sum != want[i].sum || got[i].stamp != want[i].stamp {
			t.Errorf("push %d delivered (sum %v, stamp %v), want (sum %v, stamp %v)",
				i, got[i].sum, got[i].stamp, want[i].sum, want[i].stamp)
		}
	}
	if got[0].shell == got[1].shell {
		t.Error("two pushes on the wire together shared one shell")
	}
}

// walkShellLists returns every banked shell of every engine goroutine, and
// fails on a shell that is banked twice (on one bank or on two) or that
// still points at a fold list.
func walkShellLists(t *testing.T, engine *sim.Engine) map[*upMsg]bool {
	t.Helper()
	banked := make(map[*upMsg]bool)
	for i := 0; i < engine.ShardCount(); i++ {
		for _, u := range upShells.Of(engine.Shard(i)).Banked() {
			if banked[u] {
				t.Fatalf("shell %p is banked twice (met again on the bank of shard %d)", u, i)
			}
			banked[u] = true
			if u.Values != nil {
				t.Errorf("banked shell %p on the bank of shard %d still holds a fold list", u, i)
			}
		}
	}
	return banked
}

// TestShellsAreBankedOnce runs twenty rounds on a sharded ring that loses 2 %
// of its messages, crashes an interior node while its children's pushes are
// parked in its inbox, and has a leaf leave the group with its push in flight
// (and go on flushing into a tree it is no longer in). A push must be banked
// exactly once, where it ends: on the receiver's list when it is delivered,
// on the dropping goroutine's when the network loses it: afterwards every
// list is walked — no shell twice, none holding values — and then every push
// still in an inbox is delivered to a recorder: none of them may be a banked
// shell.
func TestShellsAreBankedOnce(t *testing.T) {
	const interval = time.Minute
	engine := sim.NewShardedEngine(5, 4)
	f := newFixtureOn(t, engine, 8, 8, Config{UpdateInterval: interval}, simnet.WithDropRate(0.02))
	keys := make([]ids.Id, len(shellTopics))
	for i, topic := range shellTopics {
		keys[i] = scribe.GroupKey(topic)
	}
	for _, m := range f.managers {
		for _, topic := range shellTopics {
			m.Subscribe(topic, nil)
		}
	}
	f.ring.StartMaintenance()
	for _, m := range f.managers {
		m.sc.StartMaintenance(20 * time.Second)
	}
	engine.RunFor(2 * time.Minute) // the trees form, lost joins are retried

	v := 0.0
	setSome := func(every int) {
		v++
		for i, m := range f.managers {
			if i%every == 0 && f.ring.Network().Alive(m.sc.Node().Addr()) {
				for _, topic := range shellTopics {
					m.SetLocal(topic, v+float64(i))
				}
			}
		}
	}
	setSome(1)
	for _, m := range f.managers {
		m.Start()
	}
	start := engine.Now()

	pick := func(want func(m *Manager) bool) *Manager {
		for _, m := range f.managers {
			if f.ring.Network().Alive(m.sc.Node().Addr()) && want(m) {
				return m
			}
		}
		t.Fatal("no such node in the tree")
		return nil
	}
	for round := 1; round <= 20; round++ {
		// Two milliseconds past the tick every server has flushed (at 1.5 ms)
		// and nothing has arrived (a hop is 10 ms): the pushes are in inboxes.
		engine.RunUntil(start + time.Duration(round)*interval + 2*time.Millisecond)
		switch round {
		case 5:
			victim := pick(func(m *Manager) bool { return m.sc.ChildCount(keys[0]) > 1 && !m.sc.IsRoot(keys[0]) })
			f.ring.Network().Crash(victim.sc.Node().Addr())
		case 10:
			leaver := pick(func(m *Manager) bool {
				return m.sc.ChildCount(keys[0]) == 0 && !m.sc.Parent(keys[0]).IsNil()
			})
			leaver.sc.Leave(keys[0])
			if leaver.sc.InTree(keys[0]) {
				t.Fatal("the leaf is still in the tree after Leave")
			}
		}
		setSome(3)
	}

	// Five milliseconds past the last tick: the round's pushes are all in
	// flight, no flush is pending but the leaver's retries (which take a shell
	// and put it back), and the lists hold what the rounds before consumed.
	engine.RunUntil(start + 21*interval + 5*time.Millisecond)
	banked := walkShellLists(t, engine)
	if len(banked) == 0 {
		t.Fatal("twenty rounds banked no shell")
	}

	// Deliver what is in the inboxes to recorders that consume nothing, so
	// that no delivery causes a send: a node runs on one goroutine, so each
	// recorder keeps its own list.
	delivered := make([][]*upMsg, len(f.managers))
	for i, m := range f.managers {
		m.Stop()
		m.sc.SetTreeListener(nil)
		m.sc.SetTreeListener(pushHook{m, func(_ ids.Id, payload simnet.Message, _ pastry.NodeHandle) {
			delivered[i] = append(delivered[i], payload.(*upMsg))
		}})
	}
	engine.RunFor(200 * time.Millisecond)
	inFlight := make(map[*upMsg]bool)
	for _, list := range delivered {
		for _, u := range list {
			if inFlight[u] {
				t.Errorf("shell %p was delivered twice", u)
			}
			inFlight[u] = true
			if banked[u] {
				t.Errorf("shell %p was on a free list while it was in an inbox", u)
			}
			if u.Values == nil {
				t.Errorf("shell %p was delivered without its values", u)
			}
		}
	}
	if len(inFlight) < len(f.managers)/2 {
		t.Fatalf("only %d pushes were in flight after the last tick", len(inFlight))
	}
	walkShellLists(t, engine) // the leaver's retries put back what they took
}
