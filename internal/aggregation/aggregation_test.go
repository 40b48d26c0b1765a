package aggregation

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

// listenerFunc adapts a func to Listener for the tests' subscriptions.
type listenerFunc func(Global)

func (f listenerFunc) GlobalChanged(g Global) { f(g) }

type fixture struct {
	engine   *sim.Engine
	ring     *pastry.Ring
	managers []*Manager
}

func newFixture(t testing.TB, racks, perRack int) *fixture {
	return newFixtureCfg(t, racks, perRack, Config{UpdateInterval: time.Minute})
}

func newFixtureCfg(t testing.TB, racks, perRack int, cfg Config) *fixture {
	return newFixtureOn(t, sim.NewEngine(5), racks, perRack, cfg)
}

// newFixtureOn builds the ring under the given engine, serial or sharded.
func newFixtureOn(t testing.TB, engine *sim.Engine, racks, perRack int, cfg Config, opts ...simnet.Option) *fixture {
	t.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            racks,
		ServersPerRack:   perRack,
		RacksPerPod:      2,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           10 * time.Millisecond,
		LocalDelivery:    50 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner, opts...)
	ring.BuildStatic()
	f := &fixture{engine: engine, ring: ring, managers: make([]*Manager, ring.Size())}
	for i, n := range ring.Nodes() {
		f.managers[i] = New(scribe.New(n), cfg)
	}
	return f
}

// Local returns the node's own default-attribute sample for the topic.
func (m *Manager) Local(name string) (float64, bool) {
	return m.LocalAttr(name, DefaultAttr)
}

// LocalAttr returns the node's own sample for one attribute.
func (m *Manager) LocalAttr(name, attr string) (float64, bool) {
	st := m.topicNamed(name)
	if st == nil {
		return 0, false
	}
	a, ok := st.local.get(attr)
	if !ok || a.Count == 0 {
		return 0, false
	}
	return a.Sum, true
}

func (f *fixture) publishAll(topic string) {
	for _, m := range f.managers {
		m.PublishNow(topic)
	}
	f.engine.Run()
}

func TestGlobalAggregateMatchesDirectComputation(t *testing.T) {
	f := newFixture(t, 4, 8) // 32 nodes
	const topic = "BW_Demand"
	var wantSum, wantMin, wantMax float64
	wantMin = math.Inf(1)
	for i, m := range f.managers {
		m.Subscribe(topic, nil)
		v := float64(10 + i*3)
		m.SetLocal(topic, v)
		wantSum += v
		wantMin = math.Min(wantMin, v)
		wantMax = math.Max(wantMax, v)
	}
	f.engine.Run() // build tree + cascade reduction
	f.publishAll(topic)

	for i, m := range f.managers {
		g, ok := m.Global(topic)
		if !ok {
			t.Fatalf("node %d has no global", i)
		}
		if math.Abs(g.Sum-wantSum) > 1e-9 {
			t.Errorf("node %d: Sum = %g, want %g", i, g.Sum, wantSum)
		}
		if g.Count != len(f.managers) {
			t.Errorf("node %d: Count = %d, want %d", i, g.Count, len(f.managers))
		}
		if g.Min != wantMin || g.Max != wantMax {
			t.Errorf("node %d: Min/Max = %g/%g, want %g/%g", i, g.Min, g.Max, wantMin, wantMax)
		}
	}
}

func TestMeanUtilizationScenario(t *testing.T) {
	// Paper §III.C example: 7 servers, BW_Demand 42 units, BW_Capacity 70
	// units -> mean utilization 60%.
	f := newFixture(t, 1, 7)
	demands := []float64{10, 9, 8, 6, 5, 3, 1} // sums to 42
	for i, m := range f.managers {
		m.Subscribe("BW_Demand", nil)
		m.Subscribe("BW_Capacity", nil)
		m.SetLocal("BW_Demand", demands[i])
		m.SetLocal("BW_Capacity", 10)
	}
	f.engine.Run()
	f.publishAll("BW_Demand")
	f.publishAll("BW_Capacity")
	for i, m := range f.managers {
		d, ok1 := m.Global("BW_Demand")
		c, ok2 := m.Global("BW_Capacity")
		if !ok1 || !ok2 {
			t.Fatalf("node %d missing globals", i)
		}
		if util := d.Sum / c.Sum; math.Abs(util-0.6) > 1e-9 {
			t.Errorf("node %d computed utilization %g, want 0.6", i, util)
		}
	}
}

func TestEventDrivenUpdatePropagates(t *testing.T) {
	f := newFixture(t, 2, 4)
	const topic = "metric"
	for _, m := range f.managers {
		m.Subscribe(topic, nil)
		m.SetLocal(topic, 1)
	}
	f.engine.Run()
	f.publishAll(topic)

	// Bump one node's local value; the change must reach the root without
	// any other SetLocal calls.
	f.managers[3].SetLocal(topic, 100)
	f.engine.Run()
	f.publishAll(topic)

	want := float64(len(f.managers)-1) + 100
	for i, m := range f.managers {
		g, _ := m.Global(topic)
		if math.Abs(g.Sum-want) > 1e-9 {
			t.Errorf("node %d: Sum = %g, want %g", i, g.Sum, want)
		}
	}
}

func TestOnGlobalCallbackFires(t *testing.T) {
	f := newFixture(t, 2, 4)
	const topic = "cb"
	fired := make([]int, len(f.managers))
	for i, m := range f.managers {
		i := i
		m.Subscribe(topic, listenerFunc(func(Global) { fired[i]++ }))
		m.SetLocal(topic, 2)
	}
	f.engine.Run()
	f.publishAll(topic)
	for i, n := range fired {
		if n != 1 {
			t.Errorf("node %d callback fired %d times, want 1", i, n)
		}
	}
}

func TestPeriodicTickerPublishes(t *testing.T) {
	f := newFixture(t, 2, 4)
	const topic = "tick"
	got := 0
	for i, m := range f.managers {
		if i == 0 {
			m.Subscribe(topic, listenerFunc(func(Global) { got++ }))
		} else {
			m.Subscribe(topic, nil)
		}
		m.SetLocal(topic, 1)
		m.Start()
	}
	f.engine.RunFor(3*time.Minute + time.Second)
	for _, m := range f.managers {
		m.Stop()
	}
	f.engine.Run()
	if got < 3 {
		t.Fatalf("node 0 saw %d periodic publications, want >= 3", got)
	}
}

func TestDeadLeafDropsOutOfAggregate(t *testing.T) {
	f := newFixture(t, 2, 8)
	const topic = "survivors"
	for _, m := range f.managers {
		m.Subscribe(topic, nil)
		m.SetLocal(topic, 1)
	}
	f.engine.Run()
	f.publishAll(topic)

	// Kill a tree leaf (a node with no children for the topic).
	key := scribe.GroupKey(topic)
	var victim int = -1
	for i, m := range f.managers {
		if len(m.Scribe().Children(key)) == 0 && !m.Scribe().IsRoot(key) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no leaf found")
	}
	f.ring.Network().Crash(f.ring.Node(victim).Addr())

	// Let Pastry detect the failure and Scribe drop the child edge. The
	// detector needs probeRetries consecutive misses, so give it several
	// maintenance rounds.
	f.ring.StartMaintenance()
	f.engine.RunFor(20 * 30 * time.Second)
	f.ring.StopMaintenance()
	f.engine.Run()

	// Force the parent of the victim to recompute (a fresh local set) and
	// republish.
	for i, m := range f.managers {
		if i != victim {
			m.SetLocal(topic, 1)
		}
	}
	f.engine.Run()
	f.publishAll(topic)

	g, ok := f.managers[0].Global(topic)
	if !ok {
		t.Fatal("no global after failure")
	}
	if g.Count != len(f.managers)-1 {
		t.Fatalf("Count = %d after killing one node, want %d", g.Count, len(f.managers)-1)
	}
}

func TestRootLatenciesRecorded(t *testing.T) {
	f := newFixture(t, 4, 8)
	const topic = "probe"
	for _, m := range f.managers {
		m.Subscribe(topic, nil)
	}
	f.engine.Run()
	for _, m := range f.managers {
		m.SetLocal(topic, 5)
	}
	f.engine.Run()
	var samples []time.Duration
	for _, m := range f.managers {
		samples = append(samples, m.RootLatencies()...)
	}
	if len(samples) == 0 {
		t.Fatal("no latency samples at any root")
	}
	for _, s := range samples {
		if s <= 0 {
			t.Fatalf("non-positive latency %v", s)
		}
		// Height is small; even with processing delays a sample must stay
		// far below one second in this fixture.
		if s > time.Second {
			t.Fatalf("implausible latency %v", s)
		}
	}
	// Drained.
	for _, m := range f.managers {
		if len(m.RootLatencies()) != 0 {
			t.Fatal("RootLatencies did not drain")
		}
	}
}

func TestLocalAndGlobalAccessors(t *testing.T) {
	f := newFixture(t, 1, 2)
	m := f.managers[0]
	if _, ok := m.Local("missing"); ok {
		t.Fatal("Local on unsubscribed topic reported ok")
	}
	if _, ok := m.Global("missing"); ok {
		t.Fatal("Global on unsubscribed topic reported ok")
	}
	m.Subscribe("t", nil)
	if _, ok := m.Local("t"); ok {
		t.Fatal("Local before SetLocal reported ok")
	}
	m.SetLocal("t", 7)
	if v, ok := m.Local("t"); !ok || v != 7 {
		t.Fatalf("Local = %g,%v", v, ok)
	}
	// SetLocal on unknown topic is a no-op, not a panic.
	m.SetLocal("missing", 1)
}

func TestMultiAttributeTopic(t *testing.T) {
	// The paper's §III.D model: one topic ("configuration") carrying
	// several attributes — e.g. (configuration, numCPUs, 16) — reduced
	// independently over a single tree.
	f := newFixture(t, 2, 8)
	const topic = "configuration"
	for i, m := range f.managers {
		m.SubscribeAttr(topic, "numCPUs", nil)
		m.SetLocalAttr(topic, "numCPUs", 16)
		m.SetLocalAttr(topic, "memGB", float64(8*(i%2+1)))
	}
	f.engine.Run()
	f.publishAll(topic)

	n := float64(len(f.managers))
	for i, m := range f.managers {
		cpus, ok := m.GlobalAttr(topic, "numCPUs")
		if !ok || cpus.Sum != 16*n || cpus.Count != len(f.managers) {
			t.Fatalf("node %d numCPUs global: %+v ok=%v", i, cpus, ok)
		}
		mem, ok := m.GlobalAttr(topic, "memGB")
		if !ok {
			t.Fatalf("node %d missing memGB", i)
		}
		if mem.Min != 8 || mem.Max != 16 {
			t.Fatalf("node %d memGB min/max = %g/%g", i, mem.Min, mem.Max)
		}
	}
	// Per-attribute locals.
	if v, ok := f.managers[0].LocalAttr(topic, "numCPUs"); !ok || v != 16 {
		t.Fatalf("LocalAttr = %g, %v", v, ok)
	}
	if _, ok := f.managers[0].LocalAttr(topic, "missing"); ok {
		t.Fatal("missing attribute reported present")
	}
}

func TestAttrCallbacksFirePerAttribute(t *testing.T) {
	f := newFixture(t, 1, 4)
	const topic = "attrs"
	var aFired, bFired int
	for i, m := range f.managers {
		if i == 0 {
			m.SubscribeAttr(topic, "a", listenerFunc(func(Global) { aFired++ }))
			m.SubscribeAttr(topic, "b", listenerFunc(func(Global) { bFired++ }))
		} else {
			m.Subscribe(topic, nil)
		}
		m.SetLocalAttr(topic, "a", 1)
	}
	f.engine.Run()
	f.publishAll(topic)
	if aFired != 1 {
		t.Fatalf("attribute a fired %d times", aFired)
	}
	if bFired != 0 {
		t.Fatalf("attribute b fired %d times with no data", bFired)
	}
}

func TestFoldProperties(t *testing.T) {
	mk := func(vs []float64) Aggregate {
		var a Aggregate
		for _, v := range vs {
			a = a.Fold(Sample(v))
		}
		return a
	}
	commutative := func(x, y float64) bool {
		a := Sample(x).Fold(Sample(y))
		b := Sample(y).Fold(Sample(x))
		return a == b
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Error(err)
	}
	identity := func(x float64) bool {
		a := Sample(x)
		return a.Fold(Aggregate{}) == a && Aggregate{}.Fold(a) == a
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	associativeLike := func(xi, yi, zi int16) bool {
		x, y, z := float64(xi), float64(yi), float64(zi)
		l := Sample(x).Fold(Sample(y)).Fold(Sample(z))
		r := Sample(x).Fold(Sample(y).Fold(Sample(z)))
		return l.Count == r.Count && l.Min == r.Min && l.Max == r.Max &&
			math.Abs(l.Sum-r.Sum) < 1e-9*(1+math.Abs(l.Sum))
	}
	if err := quick.Check(associativeLike, nil); err != nil {
		t.Error(err)
	}
	a := mk([]float64{3, 1, 2})
	if a.Sum != 6 || a.Min != 1 || a.Max != 3 || a.Count != 3 {
		t.Fatalf("aggregate of {3,1,2}: %+v", a)
	}
}

// TestLookupByNameMatchesLookupByKey: the name-keyed accessors find the
// state the key-keyed message paths find, for every subscribed name, and
// nothing for a name never subscribed or before any subscribe.
func TestLookupByNameMatchesLookupByKey(t *testing.T) {
	f := newFixture(t, 1, 4)
	m := f.managers[1]
	names := []string{"BW_Capacity", "BW_Demand"}
	for _, name := range append(names, "never") {
		if m.topicNamed(name) != nil {
			t.Fatalf("%q found before any subscribe", name)
		}
		if _, ok := m.GlobalAttr(name, "b"); ok {
			t.Fatalf("GlobalAttr(%q) ok before any subscribe", name)
		}
	}
	for _, fm := range f.managers {
		for _, name := range names {
			fm.SubscribeAttr(name, "a", nil)
			fm.SubscribeAttr(name, "b", nil) // second attribute, same topic state
		}
	}
	if len(m.topics) != len(names) {
		t.Fatalf("%d topic states for %d names", len(m.topics), len(names))
	}
	for _, name := range names {
		st := m.topicNamed(name)
		if st == nil || st != m.topic(scribe.GroupKey(name)) {
			t.Fatalf("topicNamed(%q) = %p, topic(GroupKey) = %p", name, st, m.topic(scribe.GroupKey(name)))
		}
	}
	if m.topicNamed("never") != nil || m.topic(scribe.GroupKey("never")) != nil {
		t.Fatal("unsubscribed name found")
	}

	for i, fm := range f.managers {
		fm.SetLocalAttr("BW_Capacity", "a", 1000)
		fm.SetLocalAttr("BW_Capacity", "b", float64(i))
		fm.SetLocalAttr("BW_Demand", "a", 10)
		fm.SetLocalAttr("never", "a", 5) // no-op
	}
	f.engine.Run()
	for _, name := range names {
		f.publishAll(name)
	}
	n := float64(len(f.managers))
	for _, tc := range []struct {
		name, attr string
		sum        float64
		ok         bool
	}{
		{"BW_Capacity", "a", 1000 * n, true},
		{"BW_Capacity", "b", n * (n - 1) / 2, true},
		{"BW_Demand", "a", 10 * n, true},
		{"BW_Demand", "b", 0, false}, // subscribed attribute nobody set
		{"never", "a", 0, false},
	} {
		g, ok := m.GlobalAttr(tc.name, tc.attr)
		if ok != tc.ok || g.Sum != tc.sum {
			t.Errorf("GlobalAttr(%q, %q) = %g, %v; want %g, %v", tc.name, tc.attr, g.Sum, ok, tc.sum, tc.ok)
		}
	}
	if v, ok := m.LocalAttr("BW_Capacity", "b"); !ok || v != 1 {
		t.Errorf("LocalAttr = %g, %v", v, ok)
	}
	if _, ok := m.LocalAttr("never", "a"); ok {
		t.Error("LocalAttr on unsubscribed topic reported ok")
	}
}

// lookupFixture subscribes four managers to the rebalancer's two topics and
// publishes one round, so a Global lookup has something to find.
func lookupFixture(t testing.TB) *Manager {
	f := newFixture(t, 1, 4)
	topics := []string{"BW_Capacity", "BW_Demand"}
	for _, m := range f.managers {
		for _, topic := range topics {
			m.Subscribe(topic, nil)
			m.SetLocal(topic, 10)
		}
	}
	f.engine.Run()
	for _, topic := range topics {
		f.publishAll(topic)
	}
	return f.managers[0]
}

// TestSetLocalGlobalAllocateNothing: the per-round accessors on a
// subscribed topic — one leaf update, one global read — allocate nothing
// (the pending flush the first SetLocal scheduled absorbs the rest).
func TestSetLocalGlobalAllocateNothing(t *testing.T) {
	m := lookupFixture(t)
	m.SetLocal("BW_Demand", 11) // schedules the flush the measured calls coalesce into
	v := 12.0
	n := testing.AllocsPerRun(100, func() {
		v++
		m.SetLocal("BW_Demand", v)
		if g, ok := m.Global("BW_Demand"); !ok || g.Count != 4 {
			t.Fatalf("Global = %+v, %v", g, ok)
		}
	})
	if n != 0 {
		t.Fatalf("SetLocal+Global: %v allocs/op, want 0", n)
	}
}

func BenchmarkGlobalLookup(b *testing.B) {
	m := lookupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Global("BW_Demand"); !ok {
			b.Fatal("no global")
		}
	}
}

// TestPublishedGlobalsAreNeverWritten: a one-attribute topic keeps the
// published list it was handed, which every member of the tree shares, so a
// later list that brings another attribute must be merged into a copy, and
// the first list must read what the root published.
func TestPublishedGlobalsAreNeverWritten(t *testing.T) {
	var m Manager
	st := &topicState{}
	g := func(v float64) Global { return Global{Aggregate: Sample(v)} }
	first := []globalVal{{attr: "a", g: g(1)}}
	m.applyGlobal(st, first)
	if &st.global[0] != &first[0] {
		t.Fatal("a one-attribute topic copied the published list")
	}
	m.applyGlobal(st, []globalVal{{attr: "a", g: g(2)}, {attr: "b", g: g(3)}})
	m.applyGlobal(st, []globalVal{{attr: "a", g: g(4)}})
	if first[0].g != g(1) {
		t.Fatalf("the first published list now reads %v", first[0].g)
	}
	want := []globalVal{{attr: "a", g: g(4)}, {attr: "b", g: g(3)}}
	if len(st.global) != len(want) || st.global[0] != want[0] || st.global[1] != want[1] {
		t.Fatalf("globals %v, want %v", st.global, want)
	}
}
