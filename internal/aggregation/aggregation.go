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
}

func (c Config) withDefaults() Config {
	if c.UpdateInterval == 0 {
		c.UpdateInterval = 5 * time.Minute
	}
	return c
}

// processingDelay models the per-node fold-and-forward cost; the paper
// measures 1–2 ms per node (§V.C).
const processingDelay = 1500 * time.Microsecond

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

// Listener hears a subscribed attribute's new global values.
type Listener interface {
	// GlobalChanged receives every new global value the root publishes.
	GlobalChanged(Global)
}

// listener is one subscription's Listener, chained per topic in subscription
// order. Records come out of a per-engine slab: a server's subscriptions cost
// no object of their own.
type listener struct {
	attr string
	l    Listener
	next *listener
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
	// m is the topic's manager: the topic is the handler of its own flush
	// event (Fire), so scheduling a flush binds nothing.
	m *Manager

	// cached is the memoized subtree fold; cacheOK marks it current. The
	// cache is invalidated only when a fold input actually changes — a local
	// tuple takes a new value, a child pushes different values, or a child
	// leaves the tree (reported by the scribe child-drop hook) — so the
	// periodic refresh of an unchanged subtree costs O(1) instead of
	// re-folding every child. Cached lists are never mutated in place; a
	// re-fold always builds a fresh list (receivers of upMsg hold references
	// to the old one).
	cached attrList

	global    []globalVal
	listeners *listener

	// probeStamp is the leaf-send time that triggered the pending flush
	// (probeValid marks it set), used by the root to measure leaf-to-root
	// aggregation latency.
	probeStamp time.Duration

	// The flags sit together so that they share one word.
	sentOnce, flushing, cacheOK, hasGlobal, probeValid bool
	// globalShared marks global as a published list (applyGlobal).
	globalShared bool
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
	// ticker runs tick every update interval (managerTick).
	ticker sim.Ticker

	// rootLatencies collects leaf-to-root latencies observed while this
	// node is a topic root (Fig. 14's raw line).
	rootLatencies []time.Duration
	// refolds counts the subtree folds the cache could not answer, each of
	// which makes one fold list: the warm-round allocation gate holds a
	// round's objects to it.
	refolds int
}

// managerSlabs, topicSlabs and listenerSlabs are where New and SubscribeAttr
// carve their Managers, topicStates and listener records: one slab an engine
// each, so a ring's managers and subscriptions cost an allocation a chunk,
// not one a node.
var (
	managerSlabs  = sim.NewLocal[sim.Slab[Manager]]()
	topicSlabs    = sim.NewLocal[sim.Slab[topicState]]()
	listenerSlabs = sim.NewLocal[sim.Slab[listener]]()
)

// New creates the aggregation manager for the given Scribe instance.
func New(sc *scribe.Scribe, cfg Config) *Manager {
	m := managerSlabs.Of(sc.Node().Engine()).New()
	*m = Manager{sc: sc, cfg: cfg.withDefaults()}
	m.topics = m.topicsBuf[:0]
	sc.SetTreeListener(m)
	return m
}

// ChildDropped implements scribe.TreeListener. A departing child changes the
// subtree fold without any message arriving, so this is what keeps the fold
// cache honest: the next flush re-folds and compacts, exactly when the full
// re-fold would first have noticed the departure.
func (m *Manager) ChildDropped(group, _ ids.Id) {
	if st := m.topic(group); st != nil {
		st.cacheOK = false
	}
}

// ParentData implements scribe.TreeListener: a child's push up the tree of a
// subscribed topic. A push for a group this node holds no topic of is
// dropped, and its shell banked.
func (m *Manager) ParentData(group ids.Id, payload simnet.Message, from pastry.NodeHandle) {
	if st := m.topic(group); st != nil {
		m.onChildUpdate(st, payload, from)
	} else {
		simnet.Recycle(m.sc.Node().Engine(), payload)
	}
}

// MemberData implements scribe.TreeListener: a global disseminated down the
// tree of a subscribed topic. Anything else is not the aggregation layer's.
func (m *Manager) MemberData(group ids.Id, payload simnet.Message, _ pastry.NodeHandle) {
	gm, ok := payload.(*globalMsg)
	if !ok {
		return
	}
	if st := m.topic(group); st != nil {
		m.applyGlobal(st, gm.Values)
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

// Subscribe joins the topic's tree and registers an optional listener to
// every new global value of the default attribute. All servers in a v-Bundle
// cluster subscribe to every topic they participate in.
func (m *Manager) Subscribe(name string, l Listener) {
	m.SubscribeAttr(name, DefaultAttr, l)
}

// SubscribeAttr joins the topic's tree and registers an optional listener to
// one attribute's global updates. The globals of the topic reach the Manager
// as the scribe node's tree listener (MemberData), so the join binds nothing.
func (m *Manager) SubscribeAttr(name, attr string, l Listener) {
	eng := m.sc.Node().Engine()
	st := m.topicNamed(name)
	if st == nil {
		key := scribe.GroupKey(name)
		st = topicSlabs.Of(eng).New()
		*st = topicState{key: key, name: name, m: m}
		st.local = st.localBuf[:0]
		i := sort.Search(len(m.topics), func(i int) bool { return !m.topics[i].key.Less(key) })
		m.topics = append(m.topics, nil)
		copy(m.topics[i+1:], m.topics[i:])
		m.topics[i] = st
		m.sc.Join(key, scribe.Handlers{})
	}
	if l != nil {
		rec := listenerSlabs.Of(eng).New()
		rec.attr, rec.l = attr, l
		tail := &st.listeners
		for *tail != nil {
			tail = &(*tail).next
		}
		*tail = rec
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
// path. Starting a running cycle does nothing.
func (m *Manager) Start() { m.ticker.Start((*managerTick)(m)) }

// Stop halts the periodic cycle.
func (m *Manager) Stop() { m.ticker.Stop() }

// managerTick is the Manager as what its ticker runs.
type managerTick Manager

func (t *managerTick) Fire() { (*Manager)(t).tick() }
func (t *managerTick) Period() (*sim.Engine, time.Duration) {
	return t.sc.Node().Engine(), t.cfg.UpdateInterval
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
	m.refolds++
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
	m.sc.Node().Engine().AfterHandler(processingDelay, st)
}

// Fire implements sim.Handler: the topic's scheduled flush.
func (st *topicState) Fire() { st.m.flush(st) }

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
	up := upShells.Of(m.sc.Node().Engine()).Take()
	up.Topic, up.Values, up.LeafSentAt = st.key, agg, stamp
	if m.sc.SendToParent(up) {
		m.sc.Node().Obs().Instant(m.now(), obs.KindAggUpdate, obs.NoRef, int64(len(st.children)), int64(len(agg)))
		st.lastSent, st.sentOnce = agg, true
		return
	}
	bankShell(m.sc.Node().Engine(), up) // never sent: still ours
	// The tree parent is not known yet (join still in flight). Keep the
	// probe stamp and retry shortly; without this, values set before the
	// tree converges would never reach the root.
	st.probeStamp, st.probeValid = stamp, true
	st.flushing = true
	m.sc.Node().Engine().AfterHandler(flushRetryDelay, st)
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
	bankShell(m.sc.Node().Engine(), up)
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

// applyGlobal takes in a published list of globals, sorted by attribute,
// and tells the listeners, one attribute at a time. A one-attribute list that
// names the topic's only attribute becomes the topic's list as it is: a
// published list is never written, and every member of the tree then shares
// the one the root made. Any other list is merged into a list of the topic's
// own, copied first if it is still a published one.
func (m *Manager) applyGlobal(st *topicState, globals []globalVal) {
	if len(globals) == 1 && (len(st.global) == 0 || len(st.global) == 1 && st.global[0].attr == globals[0].attr) {
		st.global, st.globalShared = globals, true
		m.notify(st, globals[0])
		st.hasGlobal = true
		return
	}
	if st.globalShared {
		st.global, st.globalShared = slices.Clone(st.global), false
	}
	for _, gv := range globals {
		i := sort.Search(len(st.global), func(i int) bool { return st.global[i].attr >= gv.attr })
		if i < len(st.global) && st.global[i].attr == gv.attr {
			st.global[i].g = gv.g
		} else {
			st.global = append(st.global, globalVal{})
			copy(st.global[i+1:], st.global[i:])
			st.global[i] = gv
		}
		m.notify(st, gv)
	}
	st.hasGlobal = true
}

// notify hands one attribute's new global to its listeners.
func (m *Manager) notify(st *topicState, gv globalVal) {
	for rec := st.listeners; rec != nil; rec = rec.next {
		if rec.attr == gv.attr {
			rec.l.GlobalChanged(gv.g)
		}
	}
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
// the shell around it is recycled (upShells).
type upMsg struct {
	Topic      ids.Id
	Values     attrList
	LeafSentAt time.Duration
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

// upShells recycles upMsg shells among the nodes of one engine goroutine,
// under the rule pastry's envPool follows: a push has one owner at a time —
// flush takes a shell and hands it to the network, onChildUpdate consumes it
// exactly once and banks it on the receiver's bank, last in first out. A
// shell is per message, not per sender, because an interior node flushes
// again 1.5 ms after its next child reports, while its previous push is still
// a network hop from arriving: the two must not share values or stamp. A push
// that is dropped, lost with a crashed inbox or delivered to a node that has
// left the tree is banked where it ends (Recycle). A cold bank carves its
// shells from its slab, so the first round costs an allocation a chunk; what
// stays banked is one round's shells, which the next round sends again.
// Whoever banks a shell clears Values first (bankShell), so that a banked
// shell does not pin a fold list its subtree has since replaced.
var upShells = sim.NewLocal[sim.Bank[upMsg]]()

// bankShell banks u on e's bank, dropping its fold list.
func bankShell(e *sim.Engine, u *upMsg) {
	u.Values = nil
	upShells.Of(e).Put(u)
}

// Recycle implements simnet.Recycler: the push ended on engine e's goroutine
// without reaching onChildUpdate.
func (u *upMsg) Recycle(e *sim.Engine) { bankShell(e, u) }

// globalMsg carries the published global aggregates down the tree. One
// message goes to every child, so it is no shell: it must never implement
// simnet.Recycler.
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
