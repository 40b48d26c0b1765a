// Package aggregation implements v-Bundle's cross-hypervisor aggregation
// abstraction (paper §III.D): every server stores local (topic,
// attributeName, value) tuples — e.g. (configuration, numCPUs, 16) —
// subscribes to per-topic Scribe trees, and periodically the tree reduces
// all local values to global aggregates at the root, which disseminates the
// result back down to all members.
//
// v-Bundle uses two such topics — BW_Capacity and BW_Demand — to give every
// server the cluster-wide mean bandwidth utilization it needs to classify
// itself as a load shedder or receiver (paper §III.C, Fig. 4).
//
// Reduction is event-driven: a child pushes an update to its parent as soon
// as its subtree aggregate changes, so a leaf's new value reaches the root
// in (tree height) × (hop latency + processing delay) — the behaviour the
// paper measures in Fig. 14. Dissemination happens on the root's update
// interval, and the upward path is refreshed every interval so lost
// messages cannot leave ancestors permanently stale.
package aggregation

import (
	"slices"
	"sort"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// DefaultAttr is the attribute used by the single-value convenience API
// (SetLocal/Local/Global); topics that only carry one number never need to
// name it.
const DefaultAttr = "value"

// Aggregate is the reduction of a set of samples. The zero value is the
// empty aggregate.
type Aggregate struct {
	Sum   float64
	Count int
	Min   float64
	Max   float64
}

// Fold merges another aggregate into a.
func (a Aggregate) Fold(b Aggregate) Aggregate {
	if b.Count == 0 {
		return a
	}
	if a.Count == 0 {
		return b
	}
	out := Aggregate{Sum: a.Sum + b.Sum, Count: a.Count + b.Count, Min: a.Min, Max: a.Max}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

// Sample builds the aggregate of one sample.
func Sample(v float64) Aggregate { return Aggregate{Sum: v, Count: 1, Min: v, Max: v} }

// Mean returns Sum/Count, or zero for the empty aggregate.
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Global is a root-published aggregate with its publication time.
type Global struct {
	Aggregate
	// PublishedAt is the virtual time the root disseminated this value.
	PublishedAt time.Duration
}

// Config tunes the aggregation layer.
type Config struct {
	// UpdateInterval is the leaf sampling and root dissemination period.
	// The paper's rebalancing experiments use 5 minutes. Defaults to 5m.
	UpdateInterval time.Duration
	// ProcessingDelay models the per-node fold-and-forward cost; the paper
	// measures 1–2 ms per node (§V.C). Defaults to 1.5ms.
	ProcessingDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.UpdateInterval == 0 {
		c.UpdateInterval = 5 * time.Minute
	}
	if c.ProcessingDelay == 0 {
		c.ProcessingDelay = 1500 * time.Microsecond
	}
	return c
}

// attrVal is one (attributeName, aggregate) tuple.
type attrVal struct {
	attr string
	agg  Aggregate
}

// attrList is a node's per-attribute aggregates for a topic, kept sorted by
// attribute name. Topics carry one or two attributes in practice, so a
// small sorted slice replaces the former map[string]Aggregate: no hash
// state to allocate per topic, deterministic iteration order for free (the
// fold and dissemination loops must not depend on randomized map order),
// and equality is a linear compare.
type attrList []attrVal

// find locates attr, returning its position (or insertion point) and
// whether it is present.
func (l attrList) find(attr string) (int, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].attr >= attr })
	return i, i < len(l) && l[i].attr == attr
}

func (l attrList) get(attr string) (Aggregate, bool) {
	i, ok := l.find(attr)
	if !ok {
		return Aggregate{}, false
	}
	return l[i].agg, true
}

// set inserts or replaces attr's aggregate, keeping the slice sorted.
func (l *attrList) set(attr string, a Aggregate) {
	i, ok := l.find(attr)
	if ok {
		(*l)[i].agg = a
		return
	}
	*l = append(*l, attrVal{})
	copy((*l)[i+1:], (*l)[i:])
	(*l)[i] = attrVal{attr: attr, agg: a}
}

// fold merges attr's aggregate into the list.
func (l *attrList) fold(attr string, a Aggregate) {
	i, ok := l.find(attr)
	if ok {
		(*l)[i].agg = (*l)[i].agg.Fold(a)
		return
	}
	*l = append(*l, attrVal{})
	copy((*l)[i+1:], (*l)[i:])
	(*l)[i] = attrVal{attr: attr, agg: a}
}

func (l attrList) equal(o attrList) bool {
	if len(l) != len(o) {
		return false
	}
	for i, v := range l {
		if o[i] != v {
			return false
		}
	}
	return true
}

// childAggregates is one child's contribution to the info base. ref is the
// child's address — the ref scribe holds for the same tree edge; the node's
// directory resolves its identifier.
type childAggregates struct {
	ref  int32
	vals attrList
}

// globalVal is one published (attributeName, global) pair; globals travel
// and are stored as sorted slices for the same reasons as attrList.
type globalVal struct {
	attr string
	g    Global
}

// attrCallbacks collects the subscriber callbacks for one attribute.
type attrCallbacks struct {
	attr string
	fns  []func(Global)
}

// topicState is this node's view of one aggregation topic.
type topicState struct {
	key   ids.Id
	name  string
	local attrList
	// localBuf is the inline backing array for local: the common
	// one-attribute topic stores its tuple without a separate heap allocation
	// per node; a second attribute moves the list to the heap.
	localBuf [1]attrVal
	// children is the (ChildNodehandle, attribute, value) info base, kept
	// sorted by child identifier so the upward fold always accumulates
	// floats in the same order (float addition is not associative, and a
	// map-ordered fold would leak randomized iteration order into the
	// aggregates, breaking run-to-run reproducibility).
	children []childAggregates
	lastSent attrList
	// flushFn is the flush thunk bound once at subscribe time; every
	// markDirty reuses it instead of allocating a fresh closure per
	// scheduled flush.
	flushFn func()

	// cached is the memoized subtree fold; cacheOK marks it current. The
	// cache is invalidated only when a fold input actually changes — a local
	// tuple takes a new value, a child pushes different values, or a child
	// leaves the tree (reported by the scribe child-drop hook) — so the
	// periodic refresh of an unchanged subtree costs O(1) instead of
	// re-folding every child. Cached lists are never mutated in place; a
	// re-fold always builds a fresh list (receivers of upMsg hold references
	// to the old one).
	cached attrList

	global   []globalVal
	onGlobal []attrCallbacks

	// probeStamp is the leaf-send time that triggered the pending flush
	// (probeValid marks it set), used by the root to measure leaf-to-root
	// aggregation latency.
	probeStamp time.Duration

	// The flags sit together so that they share one word.
	sentOnce, flushing, cacheOK, hasGlobal, probeValid bool
}

// maxRootLatencySamples bounds the per-root latency record.
const maxRootLatencySamples = 65536

// Manager runs the aggregation layer for one server.
type Manager struct {
	sc  *scribe.Scribe
	cfg Config

	// topics is kept sorted by topic key: the periodic tick must visit
	// topics in identifier order (message-sending paths that walked a map
	// would leak randomized iteration order into identically-seeded runs),
	// and a node subscribes to a handful of topics at most. topicsBuf is
	// the inline backing array for the common one- or two-topic node.
	topics    []*topicState
	topicsBuf [2]*topicState
	ticker    *sim.Ticker

	// rootLatencies collects leaf-to-root latencies observed while this
	// node is a topic root (Fig. 14's raw line).
	rootLatencies []time.Duration

	// obs is the node's flight-recorder source (nil when tracing is off).
	obs *obs.Source
}

// New creates the aggregation manager for the given Scribe instance.
func New(sc *scribe.Scribe, cfg Config) *Manager {
	m := &Manager{sc: sc, cfg: cfg.withDefaults(), obs: sc.Node().Obs()}
	m.topics = m.topicsBuf[:0]
	sc.SetChildDropListener(m)
	return m
}

// ChildDropped implements scribe.ChildDropListener. A departing child changes
// the subtree fold without any message arriving, so this is what keeps the
// fold cache honest: the next flush re-folds and compacts, exactly when the
// full re-fold would first have noticed the departure.
func (m *Manager) ChildDropped(group, _ ids.Id) {
	if st := m.topic(group); st != nil {
		st.cacheOK = false
	}
}

// topicNamed returns the state of the topic subscribed under name, or nil.
// The name-keyed accessors run every round on every server; a node holds a
// handful of topics, so comparing names costs less than deriving the key
// (a SHA-1 of the name), which is computed once, at subscribe time.
func (m *Manager) topicNamed(name string) *topicState {
	for _, st := range m.topics {
		if st.name == name {
			return st
		}
	}
	return nil
}

// topic returns the state for key, or nil if not subscribed.
func (m *Manager) topic(key ids.Id) *topicState {
	i := sort.Search(len(m.topics), func(i int) bool { return !m.topics[i].key.Less(key) })
	if i < len(m.topics) && m.topics[i].key == key {
		return m.topics[i]
	}
	return nil
}

// Scribe returns the underlying Scribe instance.
func (m *Manager) Scribe() *scribe.Scribe { return m.sc }

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Subscribe joins the topic's tree and registers an optional callback fired
// on every new global value of the default attribute. All servers in a
// v-Bundle cluster subscribe to every topic they participate in.
func (m *Manager) Subscribe(name string, onGlobal func(Global)) {
	m.SubscribeAttr(name, DefaultAttr, onGlobal)
}

// SubscribeAttr joins the topic's tree and registers an optional callback
// for one attribute's global updates.
func (m *Manager) SubscribeAttr(name, attr string, onGlobal func(Global)) {
	st := m.topicNamed(name)
	if st == nil {
		key := scribe.GroupKey(name)
		st = &topicState{key: key, name: name}
		st.local = st.localBuf[:0]
		st.flushFn = func() { m.flush(st) }
		i := sort.Search(len(m.topics), func(i int) bool { return !m.topics[i].key.Less(key) })
		m.topics = append(m.topics, nil)
		copy(m.topics[i+1:], m.topics[i:])
		m.topics[i] = st
		m.sc.Join(key, scribe.Handlers{OnMulticast: m.onGlobalMsg})
		m.sc.OnParentData(key, func(payload simnet.Message, from pastry.NodeHandle) {
			m.onChildUpdate(st, payload, from)
		})
	}
	if onGlobal != nil {
		for i := range st.onGlobal {
			if st.onGlobal[i].attr == attr {
				st.onGlobal[i].fns = append(st.onGlobal[i].fns, onGlobal)
				return
			}
		}
		st.onGlobal = append(st.onGlobal, attrCallbacks{attr: attr, fns: []func(Global){onGlobal}})
	}
}

// SetLocal stores the local default-attribute value for a topic and
// schedules an upward push. The topic must have been subscribed.
func (m *Manager) SetLocal(name string, v float64) {
	m.SetLocalAttr(name, DefaultAttr, v)
}

// SetLocalAttr stores one (topic, attributeName, value) tuple, the paper's
// §III.D local-data model.
func (m *Manager) SetLocalAttr(name, attr string, v float64) {
	st := m.topicNamed(name)
	if st == nil {
		return
	}
	s := Sample(v)
	if old, had := st.local.get(attr); !had || old != s {
		st.local.set(attr, s)
		st.cacheOK = false
	}
	m.markDirty(st, m.now())
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

// Global returns the last globally published default-attribute aggregate.
func (m *Manager) Global(name string) (Global, bool) {
	return m.GlobalAttr(name, DefaultAttr)
}

// GlobalAttr returns the last globally published aggregate for one
// attribute of the topic.
func (m *Manager) GlobalAttr(name, attr string) (Global, bool) {
	st := m.topicNamed(name)
	if st == nil || !st.hasGlobal {
		return Global{}, false
	}
	for _, gv := range st.global {
		if gv.attr == attr {
			return gv.g, true
		}
	}
	return Global{}, false
}

// Start begins the periodic cycle: roots disseminate their current global
// aggregates every update interval, and every node refreshes its upward
// path.
func (m *Manager) Start() {
	if m.ticker != nil {
		return
	}
	m.ticker = m.sc.Node().Engine().Every(m.cfg.UpdateInterval, m.tick)
}

// Stop halts the periodic cycle.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

func (m *Manager) tick() {
	// topics is sorted by key, so the walk is already in identifier order.
	for _, st := range m.topics {
		if m.sc.IsRoot(st.key) {
			m.publish(st)
		}
		// Refresh the upward path once per interval even when the values
		// are unchanged: a lost upMsg would otherwise leave the parent's
		// info base stale forever.
		st.sentOnce = false
		m.markDirty(st, m.now())
	}
}

// PublishNow forces the root of the topic to disseminate immediately; only
// the root reacts. Experiments use it to avoid waiting a full interval.
func (m *Manager) PublishNow(name string) {
	st := m.topicNamed(name)
	if st == nil || !m.sc.IsRoot(st.key) {
		return
	}
	m.publish(st)
}

// subtreeAggregates folds the local tuples with the info base, dropping
// entries for children no longer in the tree. Unchanged subtrees hit the
// fold cache: the periodic upward refresh of a quiescent subtree then costs
// nothing per child, so a round's total fold work scales with how much
// actually changed, not with the tree size.
func (m *Manager) subtreeAggregates(st *topicState) attrList {
	if st.cacheOK {
		return st.cached
	}
	// A fresh list every re-fold: the previous one may still be referenced
	// by an in-flight upMsg, and agg must not alias localBuf either.
	// Exact capacity: a child almost never brings an attribute the node
	// itself does not hold, and one that does pays the append.
	agg := make(attrList, len(st.local))
	copy(agg, st.local)
	// The info base is already sorted by child identifier, so the fold
	// order is fixed; departed children are compacted out in place.
	kept := st.children[:0]
	for _, c := range st.children {
		if !m.sc.HasChild(st.key, m.childID(c.ref)) {
			continue
		}
		kept = append(kept, c)
		for _, cv := range c.vals {
			agg.fold(cv.attr, cv.agg)
		}
	}
	st.children = kept
	st.cached, st.cacheOK = agg, true
	return agg
}

// markDirty schedules a flush of the subtree aggregates toward the root
// after the processing delay, coalescing bursts of child updates.
func (m *Manager) markDirty(st *topicState, probeStamp time.Duration) {
	if !st.probeValid || probeStamp < st.probeStamp {
		st.probeStamp = probeStamp
		st.probeValid = true
	}
	if st.flushing {
		return
	}
	st.flushing = true
	m.sc.Node().Engine().After(m.cfg.ProcessingDelay, st.flushFn)
}

func (m *Manager) flush(st *topicState) {
	st.flushing = false
	agg := m.subtreeAggregates(st)
	if st.sentOnce && agg.equal(st.lastSent) {
		return
	}
	stamp := st.probeStamp
	st.probeValid = false
	if m.sc.IsRoot(st.key) {
		// The reduction ends here; record the probe latency (Fig. 14) and
		// wait for the next dissemination tick. The record is bounded so
		// long experiments that never drain it cannot grow without limit.
		if len(m.rootLatencies) < maxRootLatencySamples {
			m.rootLatencies = append(m.rootLatencies, m.now()-stamp)
		}
		st.lastSent, st.sentOnce = agg, true
		return
	}
	shells := upShells.Of(m.sc.Node().Engine())
	up := shells.get()
	up.Topic, up.Values, up.LeafSentAt = st.key, agg, stamp
	if m.sc.SendToParent(up) {
		m.obs.Instant(m.now(), obs.KindAggUpdate, obs.NoRef, int64(len(st.children)), int64(len(agg)))
		st.lastSent, st.sentOnce = agg, true
		return
	}
	shells.put(up) // never sent: still ours
	// The tree parent is not known yet (join still in flight). Keep the
	// probe stamp and retry shortly; without this, values set before the
	// tree converges would never reach the root.
	st.probeStamp, st.probeValid = stamp, true
	st.flushing = true
	m.sc.Node().Engine().After(flushRetryDelay, st.flushFn)
}

// flushRetryDelay paces upward-push retries while the topic tree is still
// converging.
const flushRetryDelay = 250 * time.Millisecond

func (m *Manager) onChildUpdate(st *topicState, payload simnet.Message, from pastry.NodeHandle) {
	up, ok := payload.(*upMsg)
	if !ok {
		return
	}
	ref := int32(from.Addr)
	i := sort.Search(len(st.children), func(i int) bool { return !m.childID(st.children[i].ref).Less(from.Id) })
	if i < len(st.children) && st.children[i].ref == ref {
		if !st.children[i].vals.equal(up.Values) {
			st.cacheOK = false
		}
		st.children[i].vals = up.Values
	} else {
		if len(st.children) == cap(st.children) {
			// Grow once to the tree's fan-in instead of doubling up to it: a
			// hub hears from tens of thousands of children in one round.
			if more := m.sc.ChildCount(st.key) - len(st.children); more > 1 {
				st.children = slices.Grow(st.children, more)
			}
		}
		st.children = append(st.children, childAggregates{})
		copy(st.children[i+1:], st.children[i:])
		st.children[i] = childAggregates{ref: ref, vals: up.Values}
		st.cacheOK = false
	}
	m.markDirty(st, up.LeafSentAt)
	// This is the push's one point of consumption, and nothing above kept the
	// *upMsg: the info base holds the list Values pointed at, not the shell.
	upShells.Of(m.sc.Node().Engine()).put(up)
}

// publish computes the root's full aggregates and disseminates them down
// the tree (and to the root's own subscribers).
func (m *Manager) publish(st *topicState) {
	now := m.now()
	agg := m.subtreeAggregates(st)
	globals := make([]globalVal, 0, len(agg))
	for _, av := range agg {
		globals = append(globals, globalVal{attr: av.attr, g: Global{Aggregate: av.agg, PublishedAt: now}})
	}
	m.sc.SendToChildren(st.key, &globalMsg{Topic: st.key, Values: globals})
	m.applyGlobal(st, globals)
}

// onGlobalMsg receives a disseminated global via the scribe tree.
func (m *Manager) onGlobalMsg(group ids.Id, payload simnet.Message, _ pastry.NodeHandle) {
	gm, ok := payload.(*globalMsg)
	if !ok {
		return
	}
	if st := m.topic(group); st != nil {
		m.applyGlobal(st, gm.Values)
	}
}

func (m *Manager) applyGlobal(st *topicState, globals []globalVal) {
	for _, gv := range globals {
		i := sort.Search(len(st.global), func(i int) bool { return st.global[i].attr >= gv.attr })
		if i < len(st.global) && st.global[i].attr == gv.attr {
			st.global[i].g = gv.g
		} else {
			st.global = append(st.global, globalVal{})
			copy(st.global[i+1:], st.global[i:])
			st.global[i] = gv
		}
		for _, cb := range st.onGlobal {
			if cb.attr == gv.attr {
				for _, fn := range cb.fns {
					fn(gv.g)
				}
			}
		}
	}
	st.hasGlobal = true
}

// RootLatencies returns the leaf-to-root aggregation latencies this node
// observed as a root, and clears the record.
func (m *Manager) RootLatencies() []time.Duration {
	out := m.rootLatencies
	m.rootLatencies = nil
	return out
}

func (m *Manager) now() time.Duration { return m.sc.Node().Engine().Now() }

// childID resolves the identifier of an info-base ref.
func (m *Manager) childID(ref int32) ids.Id { return m.sc.Node().HandleOf(ref).Id }

// upMsg carries a subtree's per-attribute aggregates one edge toward the
// root. Values is the sender's cached fold list, shared and never written;
// the shell around it is recycled (upShellList).
type upMsg struct {
	Topic      ids.Id
	Values     attrList
	LeafSentAt time.Duration
	next       *upMsg // the shell below this one while it lies in an upShellList
}

// TreeGroup implements scribe.Upward.
func (u *upMsg) TreeGroup() ids.Id { return u.Topic }

// WireSize implements simnet.WireSizer.
func (u *upMsg) WireSize() int {
	size := scribe.TreeEdgeWireBytes + ids.Bytes + 8
	for _, av := range u.Values {
		size += len(av.attr) + 4*8
	}
	return size
}

// upShellList recycles upMsg shells among the nodes of one engine goroutine,
// under the rule pastry's envPool follows: a push has one owner at a time —
// flush takes a shell and hands it to the network, onChildUpdate consumes it
// exactly once and banks it on the receiver's list, last in first out. A
// shell is per message, not per sender, because an interior node flushes
// again 1.5 ms after its next child reports, while its previous push is still
// a network hop from arriving: the two must not share values or stamp. A push
// that is dropped, lost with a crashed inbox or delivered to a node that has
// left the tree is never banked; the collector takes it. What stays banked is
// one round's shells, which the next round sends again.
type upShellList struct{ top *upMsg }

var upShells = sim.NewLocal[upShellList]()

func (l *upShellList) get() *upMsg {
	u := l.top
	if u == nil {
		return &upMsg{}
	}
	l.top, u.next = u.next, nil
	return u
}

// put banks a shell; Values is dropped so that a banked shell does not pin a
// fold list its subtree has since replaced.
func (l *upShellList) put(u *upMsg) {
	u.Values, u.next = nil, l.top
	l.top = u
}

// globalMsg carries the published global aggregates down the tree.
type globalMsg struct {
	Topic  ids.Id
	Values []globalVal
}

// WireSize implements simnet.WireSizer.
func (g *globalMsg) WireSize() int {
	size := ids.Bytes
	for _, gv := range g.Values {
		size += len(gv.attr) + 5*8
	}
	return size
}
