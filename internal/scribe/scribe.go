// Package scribe implements the Scribe application-level group
// communication system (Castro et al.) on top of the Pastry overlay, as
// used by v-Bundle for its aggregation trees and its Less-Loaded any-cast
// group (paper §III).
//
// A group is named by a pseudo-random Pastry key (groupId), typically the
// hash of its textual name. The node whose identifier is numerically
// closest to the groupId is the group's rendezvous point (root). Joins are
// routed toward the groupId and grafted onto the first node already in the
// tree, so the multicast tree inherits Pastry's proximity properties.
//
// Two primitives matter to v-Bundle:
//
//   - Multicast disseminates a message from the root to all members; the
//     aggregation layer uses the tree in both directions.
//   - Anycast performs a distributed depth-first search of the tree,
//     delivering the message to one member willing to accept it —
//     v-Bundle's decentralized resource discovery. Children are visited
//     closest-to-the-origin first, which preserves the bandwidth-aware
//     placement when shedding load.
package scribe

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
)

// AppName is the name under which Scribe registers with Pastry.
const AppName = "scribe"

// GroupKey derives a group identifier from its textual name, mirroring the
// paper's hash(groupName) construction. Every server of a cluster asks for the
// same few names (131072 subscriptions to one topic hashed one string 131072
// times), so the answers are remembered for the life of the process: a name
// seen before costs one map lookup and allocates nothing.
func GroupKey(name string) ids.Id {
	known := groupKeys.Load()
	if known != nil {
		if id, ok := (*known)[name]; ok {
			return id
		}
	}
	id := ids.HashString(name)
	// Shard goroutines subscribe concurrently, so the memo is never written
	// in place: a new name publishes a copy. A race between two new names
	// loses one of them until it is asked for again, which is harmless. Names
	// past groupKeysMax are hashed each time, which keeps a process that
	// invents names without end at the cost it always had.
	if known == nil || len(*known) < groupKeysMax {
		next := map[string]ids.Id{name: id}
		if known != nil {
			maps.Copy(next, *known)
		}
		groupKeys.Store(&next)
	}
	return id
}

const groupKeysMax = 4096

var groupKeys atomic.Pointer[map[string]ids.Id]

// Handlers holds the per-group callbacks of a member.
type Handlers struct {
	// OnMulticast is invoked for every multicast delivered to this member.
	OnMulticast func(group ids.Id, payload simnet.Message, from pastry.NodeHandle)
	// OnAnycast is asked whether this member accepts an any-cast message.
	// Returning true ends the depth-first search. A nil handler rejects.
	OnAnycast func(group ids.Id, payload simnet.Message, origin pastry.NodeHandle) bool
}

// AnycastResult reports the outcome of an Anycast call to its originator.
type AnycastResult struct {
	// Accepted is true if some member accepted the message.
	Accepted bool
	// By is the accepting member (NoHandle when Accepted is false).
	By pastry.NodeHandle
	// Visited is the number of tree nodes the search touched.
	Visited int
	// Trace is the query's flight-recorder span (NoRef when the recorder is
	// off or the query was fire-and-forget), letting the caller parent its
	// follow-up work — a migration — to the discovery that caused it.
	Trace obs.Ref
}

// groupState is this node's view of one group's tree.
type groupState struct {
	group  ids.Id
	member bool
	root   bool
	parent pastry.NodeHandle // NoHandle while unknown or at the root
	// children holds the child edges as refs (the child's address; the
	// node's directory resolves the identifier), sorted by identifier so every
	// dissemination loop walks the tree in a deterministic order at no extra
	// cost; maps would randomize message ordering and make identically-seeded
	// runs diverge. A handle is materialised (Node.HandleOf) only where one
	// leaves the slice: four bytes an edge instead of twenty-four.
	children []int32
	handlers Handlers
	// joining marks an in-flight join (parent not yet confirmed).
	joining bool
	// missedBeats counts maintenance rounds without a parent heartbeat.
	missedBeats int
}

// childIndex locates id in the sorted children slice, returning its
// position (or insertion point) and whether it is present. n is the local
// node, whose directory orders the refs.
func (g *groupState) childIndex(n *pastry.Node, id ids.Id) (int, bool) {
	i := sort.Search(len(g.children), func(i int) bool { return !n.HandleOf(g.children[i]).Id.Less(id) })
	return i, i < len(g.children) && n.HandleOf(g.children[i]).Id == id
}

// putChild inserts a child edge, keeping the slice sorted; an edge already
// present stays as it is (within a ring the identifier fixes the address).
func (g *groupState) putChild(n *pastry.Node, h pastry.NodeHandle) {
	i, ok := g.childIndex(n, h.Id)
	if ok {
		return
	}
	g.children = append(g.children, 0)
	copy(g.children[i+1:], g.children[i:])
	g.children[i] = int32(h.Addr)
}

// dropChild removes a child edge; it reports whether it was present.
func (g *groupState) dropChild(n *pastry.Node, id ids.Id) bool {
	i, ok := g.childIndex(n, id)
	if !ok {
		return false
	}
	g.children = append(g.children[:i], g.children[i+1:]...)
	return true
}

// AnycastCaller hears the verdict of an any-cast it launched (AnycastWith):
// a record of the caller's own, so a tracked query binds nothing.
type AnycastCaller interface{ AnycastDone(AnycastResult) }

// anycastFunc adapts Anycast's func to AnycastCaller; a func value is one
// pointer, so the conversion allocates nothing.
type anycastFunc func(AnycastResult)

func (f anycastFunc) AnycastDone(r AnycastResult) { f(r) }

// pendingAnycast is one originator-side in-flight any-cast: its callback,
// enough of the query to resend it, and the retry budget left.
type pendingAnycast struct {
	seq     uint64
	group   ids.Id
	payload simnet.Message
	cb      AnycastCaller
	// attemptsLeft counts resends remaining; nextTimeout doubles per retry.
	attemptsLeft int
	nextTimeout  time.Duration
	// launched is when the any-cast was first sent: the origin of the
	// end-to-end and per-retry-wait latency histograms.
	launched time.Duration
	// trace is the query's recorder span; retries re-attach it to the
	// resent message so the whole multi-attempt search shares one span.
	trace obs.Ref
}

// wheelEntry is one deadline parked on the shared any-cast timeout wheel.
type wheelEntry struct {
	at  time.Duration
	seq uint64
}

// originator is what a node needs to track the any-casts it launched: the
// pending queries, their timeout wheel and their latency histograms. Only a
// node that calls Anycast with a callback has one, carved from its engine's
// slab; its three lists start in the arrays beside them, which hold what a
// shedder has in flight: one query at a time, and at most one resolved
// deadline the wheel has yet to prune.
type originator struct {
	// seq numbers the tracked queries from 1; a fire-and-forget query
	// carries 0, which therefore never matches a pending entry.
	seq uint64
	// pending holds the tracked queries in seq order (they are appended as
	// they are numbered): a node has a handful at most, so a scan replaces
	// the map that cost an allocation an originator.
	pending    []pendingAnycast
	pendingBuf [1]pendingAnycast

	// wheel holds the pending any-cast deadlines in push order. One armed
	// engine event at the earliest live deadline serves the whole wheel, so
	// resolved any-casts no longer leave a dead timer each in the event
	// queue (8k-server runs used to carry thousands through it).
	wheel        []wheelEntry
	wheelDue     []wheelEntry // scratch for wheelFire, reused across fires
	wheelBuf     [2]wheelEntry
	wheelDueBuf  [1]wheelEntry
	wheelArmed   bool
	wheelArmedAt time.Duration
	wheelEpoch   uint64

	// lat records launch-to-verdict latency (every tracked any-cast,
	// resolved or given up); retryWait records launch-to-retry waits. Both
	// are nil when tracing is off.
	lat       *obs.Histogram
	retryWait *obs.Histogram
}

// find returns the index of seq's pending entry.
func (o *originator) find(seq uint64) (int, bool) {
	for i := range o.pending {
		if o.pending[i].seq == seq {
			return i, true
		}
	}
	return 0, false
}

// wheelTimer is one armed wheel event and its handler: the epoch it was
// armed at tells a superseded event from the live one. Timers come from
// their engine's bank and go back to it when they fire.
type wheelTimer struct {
	s     *Scribe
	epoch uint64
}

var wheelTimers = sim.NewLocal[sim.Bank[wheelTimer]]()

// Fire implements sim.Handler.
func (t *wheelTimer) Fire() {
	s, epoch := t.s, t.epoch
	*t = wheelTimer{}
	wheelTimers.Of(s.node.Engine()).Put(t)
	if epoch != s.orig.wheelEpoch {
		return // superseded by a re-arm at an earlier deadline
	}
	s.wheelFire()
}

// Scribe runs group communication for one Pastry node.
type Scribe struct {
	node *pastry.Node
	// groups is kept sorted by group identifier: a node participates in a
	// handful of trees, so a small sorted slice replaces the former map —
	// no per-node hash state to allocate, and every walk is already in the
	// deterministic identifier order the messaging paths require.
	// groupsBuf backs the slice inline for the common one- or two-group
	// node, and g0 is the first group's state stored in the Scribe itself
	// (one fewer heap object per node; g0used marks it claimed for good).
	groups    []*groupState
	groupsBuf [2]*groupState
	g0        groupState
	g0used    bool

	// orig is nil until the node launches its first tracked any-cast
	// (originate makes it); with the flight recorder on, New makes it, because
	// its histograms register there.
	orig *originator

	// AnycastTimeout bounds how long an originator waits for an any-cast
	// verdict before retrying or reporting failure. Defaults to 10 seconds.
	AnycastTimeout time.Duration
	// AnycastRetries is how many times an originator resends a query whose
	// verdict never arrived, doubling the timeout each attempt (lost
	// queries and lost verdicts both look like silence). Defaults to 2.
	AnycastRetries int

	// tree hears of the node's tree edges: a child edge removed (leave,
	// failure, stale-edge prune), a push from a child and a multicast to a
	// member. It is the aggregation manager, which invalidates the cached
	// subtree folds that included the child, folds the pushes and applies
	// the disseminated globals.
	tree TreeListener

	// up is nil until the node first starts maintenance or hears of a
	// death: most Scribes never repair a tree.
	up *upkeep

	// stats for the overhead experiments
	joinsHandled      obs.Counter
	multicastsRelayed obs.Counter
	anycastsSeen      obs.Counter
	anycastsRetried   obs.Counter
	orphanAccepts     obs.Counter

	// obs is the node's flight-recorder source; curAnycast is the span of
	// the any-cast whose OnAnycast handler is executing right now, exposed
	// through ActiveAnycastTrace so the acceptor can parent its reservation
	// to the search that found it.
	obs        *obs.Source
	curAnycast obs.Ref
}

// group returns the state for id, or nil when this node is not in that
// tree.
func (s *Scribe) group(id ids.Id) *groupState {
	i := sort.Search(len(s.groups), func(i int) bool { return !s.groups[i].group.Less(id) })
	if i < len(s.groups) && s.groups[i].group == id {
		return s.groups[i]
	}
	return nil
}

// upkeep is what only tree repair needs: the maintenance ticker, its period,
// and the scratch of the repair walks.
type upkeep struct {
	// maintenance runs maintenanceRound every interval (maintenanceTick).
	maintenance sim.Ticker
	interval    time.Duration
	// keyScratch is reused by sortedGroupKeys to snapshot the group keys
	// before walks that may prune entries mid-iteration.
	keyScratch []ids.Id
}

// upkeepState returns the Scribe's upkeep state, making it on first use.
func (s *Scribe) upkeepState() *upkeep {
	if s.up == nil {
		s.up = new(upkeep)
	}
	return s.up
}

// sortedGroupKeys snapshots the group keys in identifier order, in a
// scratch slice owned by s (valid until the next call). The slice is
// already sorted; the copy exists so callers can prune groups while
// iterating.
func (s *Scribe) sortedGroupKeys() []ids.Id {
	up := s.upkeepState()
	out := up.keyScratch[:0]
	for _, g := range s.groups {
		out = append(out, g.group)
	}
	up.keyScratch = out
	return out
}

// scribeSlabs is where New carves its Scribes: one slab an engine, so a ring's
// Scribes cost an allocation a chunk, not one a node.
var scribeSlabs = sim.NewLocal[sim.Slab[Scribe]]()

// New creates the Scribe instance for node and registers it under AppName.
func New(node *pastry.Node) *Scribe {
	s := scribeSlabs.Of(node.Engine()).New()
	*s = Scribe{
		node:           node,
		AnycastTimeout: 10 * time.Second,
		AnycastRetries: 2,
		obs:            node.Obs(),
	}
	s.groups = s.groupsBuf[:0]
	if reg := node.Network().Trace().Registry(); reg != nil {
		reg.Register("scribe/joins_handled", &s.joinsHandled)
		reg.Register("scribe/multicasts_relayed", &s.multicastsRelayed)
		reg.Register("scribe/anycasts_seen", &s.anycastsSeen)
		reg.Register("scribe/anycasts_retried", &s.anycastsRetried)
		reg.Register("scribe/orphan_accepts", &s.orphanAccepts)
		// The registry lists a histogram's names from the moment it is
		// registered, so a traced run registers every node's at construction,
		// as it always has, and its originators exist from the start.
		o := s.originate()
		o.lat, o.retryWait = &obs.Histogram{}, &obs.Histogram{}
		reg.RegisterHistogram("scribe/anycast_ns", o.lat)
		reg.RegisterHistogram("scribe/anycast_retry_wait_ns", o.retryWait)
	}
	node.Register(AppName, s)
	return s
}

// Node returns the underlying Pastry node.
func (s *Scribe) Node() *pastry.Node { return s.node }

// InTree reports whether this node participates in the group's tree, as a
// member or as a forwarder.
func (s *Scribe) InTree(group ids.Id) bool {
	return s.group(group) != nil
}

// Children returns the node's children in the group tree.
func (s *Scribe) Children(group ids.Id) []pastry.NodeHandle {
	g := s.group(group)
	if g == nil {
		return nil
	}
	out := make([]pastry.NodeHandle, len(g.children))
	for i, ref := range g.children {
		out[i] = s.node.HandleOf(ref)
	}
	return out
}

// ChildCount returns how many children the node has in the group tree; the
// aggregation layer sizes its per-child info base by it.
func (s *Scribe) ChildCount(group ids.Id) int {
	if g := s.group(group); g != nil {
		return len(g.children)
	}
	return 0
}

// ForEachChild calls fn for every child edge of this node in the group
// tree, in identifier order, without copying the children slice. fn must
// not mutate the tree.
func (s *Scribe) ForEachChild(group ids.Id, fn func(pastry.NodeHandle)) {
	if g := s.group(group); g != nil {
		for _, ref := range g.children {
			fn(s.node.HandleOf(ref))
		}
	}
}

// HasChild reports whether id is one of this node's children in the group
// tree. The aggregation layer uses it to prune its per-child info base
// without allocating a membership set.
func (s *Scribe) HasChild(group, id ids.Id) bool {
	g := s.group(group)
	if g == nil {
		return false
	}
	_, ok := g.childIndex(s.node, id)
	return ok
}

// Parent returns the node's parent in the group tree (NoHandle at the root
// or when unknown).
func (s *Scribe) Parent(group ids.Id) pastry.NodeHandle {
	if g := s.group(group); g != nil {
		return g.parent
	}
	return pastry.NoHandle
}

// IsRoot reports whether this node is the group's rendezvous point.
func (s *Scribe) IsRoot(group ids.Id) bool {
	g := s.group(group)
	return g != nil && g.root
}

// AnycastStats returns the originator-side reliability counters: queries
// resent after a silent timeout, and accepted verdicts that arrived with no
// pending callback (handed to the node's OrphanAcceptor).
func (s *Scribe) AnycastStats() (retried, orphans int) {
	return int(s.anycastsRetried.Value()), int(s.orphanAccepts.Value())
}

// ActiveAnycastTrace returns the recorder span of the any-cast whose
// OnAnycast handler is currently executing (NoRef outside such a call).
func (s *Scribe) ActiveAnycastTrace() obs.Ref { return s.curAnycast }

// --- membership ------------------------------------------------------------

// Join subscribes this node to group with the given handlers. Joining an
// already joined group replaces the handlers. The tree is created on demand:
// the first join establishes the rendezvous point.
func (s *Scribe) Join(group ids.Id, h Handlers) {
	g := s.stateFor(group)
	g.member = true
	g.handlers = h
	if g.root || (!g.parent.IsNil() && !g.joining) {
		return // already attached to the tree
	}
	s.sendJoin(g)
}

func (s *Scribe) stateFor(group ids.Id) *groupState {
	i := sort.Search(len(s.groups), func(i int) bool { return !s.groups[i].group.Less(group) })
	if i < len(s.groups) && s.groups[i].group == group {
		return s.groups[i]
	}
	var g *groupState
	if !s.g0used {
		// First group ever: use the state embedded in the Scribe. The slot
		// is claimed permanently — a pruned group's state goes to its
		// engine's bank, and this one is never banked.
		s.g0used = true
		g = &s.g0
		*g = groupState{group: group, parent: pastry.NoHandle}
	} else {
		g = groupBanks.Of(s.node.Engine()).take(group)
	}
	if len(s.groups) == cap(s.groups) && cap(s.groups) == len(s.groupsBuf) {
		// A third group: the list moves to an array carved from the
		// engine's slab, which holds the common three-group node for good.
		grown := groupLists.Of(s.node.Engine()).New()[:len(s.groups)]
		copy(grown, s.groups)
		s.groups = grown
	}
	s.groups = append(s.groups, nil)
	copy(s.groups[i+1:], s.groups[i:])
	s.groups[i] = g
	return g
}

// groupBank keeps an engine's pruned group states, one stack a group key,
// for the next node of the engine that enters the same tree. The key
// decides because in-flight joins, leaves and acks point at their sender's
// copy of it (groupState.group): a state is only ever taken again for the
// key it holds, and take leaves that field as it is, so a message still on
// the wire reads the key it was sent with. A slab refills an empty stack.
type groupBank struct {
	keys  []ids.Id
	free  [][]*groupState
	carve sim.Slab[groupState]
}

var (
	groupBanks = sim.NewLocal[groupBank]()
	// groupLists carves a node's group list once it outgrows groupsBuf.
	groupLists = sim.NewLocal[sim.Slab[[4]*groupState]]()
)

// take returns a blank state for group: a banked one of the same key, or a
// new one.
func (b *groupBank) take(group ids.Id) *groupState {
	for k, key := range b.keys {
		if key != group {
			continue
		}
		if n := len(b.free[k]); n > 0 {
			g := b.free[k][n-1]
			b.free[k] = b.free[k][:n-1]
			children := g.children[:0]
			// Every field but group, which in-flight messages may be reading.
			g.member, g.root, g.parent = false, false, pastry.NoHandle
			g.children, g.handlers, g.joining, g.missedBeats = children, Handlers{}, false, 0
			return g
		}
		break
	}
	g := b.carve.New()
	*g = groupState{group: group, parent: pastry.NoHandle}
	return g
}

// put banks a pruned state under its key.
func (b *groupBank) put(g *groupState) {
	for k, key := range b.keys {
		if key == g.group {
			b.free[k] = append(b.free[k], g)
			return
		}
	}
	b.keys = append(b.keys, g.group)
	b.free = append(b.free, []*groupState{g})
}

func (s *Scribe) sendJoin(g *groupState) {
	g.joining = true
	s.node.Route(g.group, AppName, (*joinMsg)(&g.group))
}

// sendLeave tells to — the parent, or a node holding a stale edge — that
// this node is no longer its child in g's tree.
func (s *Scribe) sendLeave(to pastry.NodeHandle, g *groupState) {
	s.node.SendDirect(to, AppName, (*leaveMsg)(&g.group))
}

// Leave unsubscribes this node from group. The node remains a silent
// forwarder while it still has children; once childless it prunes itself
// from the tree.
func (s *Scribe) Leave(group ids.Id) {
	g := s.group(group)
	if g == nil {
		return
	}
	g.member = false
	g.handlers = Handlers{}
	s.maybePrune(g)
}

// maybePrune detaches the node from the tree if it no longer serves any
// purpose there (no local member, no children, not the root).
func (s *Scribe) maybePrune(g *groupState) {
	if g.member || g.root || len(g.children) > 0 {
		return
	}
	if !g.parent.IsNil() {
		s.sendLeave(g.parent, g)
	}
	if i := sort.Search(len(s.groups), func(i int) bool { return !s.groups[i].group.Less(g.group) }); i < len(s.groups) && s.groups[i] == g {
		s.groups = append(s.groups[:i], s.groups[i+1:]...)
		if g != &s.g0 {
			groupBanks.Of(s.node.Engine()).put(g)
		}
	}
}

// --- multicast ---------------------------------------------------------------

// Multicast publishes payload to every member of group. The message is
// routed to the rendezvous point and disseminated down the tree.
func (s *Scribe) Multicast(group ids.Id, payload simnet.Message) {
	s.node.Route(group, AppName, &multicastMsg{Group: group, Payload: payload, From: s.node.Handle()})
}

// disseminate delivers a multicast locally (if member) and relays it to all
// children.
func (s *Scribe) disseminate(g *groupState, m *multicastDown) {
	s.multicastsRelayed.Inc()
	if g.member {
		if g.handlers.OnMulticast != nil {
			g.handlers.OnMulticast(g.group, m.Payload, m.From)
		}
		if s.tree != nil {
			s.tree.MemberData(g.group, m.Payload, m.From)
		}
	}
	for _, ref := range g.children {
		s.node.SendDirect(s.node.HandleOf(ref), AppName, m)
	}
}

// SendToChildren pushes payload directly to this node's children in the
// group tree (the aggregation layer uses this for root-to-leaf
// dissemination below the root).
func (s *Scribe) SendToChildren(group ids.Id, payload simnet.Message) {
	g := s.group(group)
	if g == nil {
		return
	}
	m := &multicastDown{Group: group, Payload: payload, From: s.node.Handle()}
	for _, ref := range g.children {
		s.node.SendDirect(s.node.HandleOf(ref), AppName, m)
	}
}

// SendToParent pushes payload directly to this node's parent in the tree of
// the group the payload names; it reports false at the root or while the
// parent is unknown, and the payload is then still the caller's. The
// aggregation layer uses this for leaf-to-root reduction.
func (s *Scribe) SendToParent(payload Upward) bool {
	g := s.group(payload.TreeGroup())
	if g == nil || g.parent.IsNil() {
		return false
	}
	s.node.SendDirect(g.parent, AppName, payload)
	return true
}

// --- anycast -----------------------------------------------------------------

// Anycast starts a depth-first search of the group tree for a member that
// accepts payload; onResult is invoked exactly once with the verdict. A
// query with a callback is tracked until its verdict arrives: silence past
// AnycastTimeout triggers up to AnycastRetries resends with doubled
// timeouts, and only after the last attempt goes unanswered does onResult
// see a failure. An accept that straggles in after that still reaches the
// node's OrphanAcceptor, so its resources are never silently stranded. A nil
// onResult is fire-and-forget: nothing is tracked, no timer is armed, and
// any accept goes straight to the orphan handler — the originator was
// never going to act on it.
func (s *Scribe) Anycast(group ids.Id, payload simnet.Message, onResult func(AnycastResult)) {
	if onResult == nil {
		s.AnycastWith(group, payload, nil)
		return
	}
	s.AnycastWith(group, payload, anycastFunc(onResult))
}

// AnycastWith is Anycast for a caller that hears the verdict as a record of
// its own: the one path both take.
func (s *Scribe) AnycastWith(group ids.Id, payload simnet.Message, caller AnycastCaller) {
	if caller == nil {
		s.sendAnycast(group, payload, 0, obs.NoRef)
		return
	}
	o := s.originate()
	o.seq++
	seq := o.seq
	trace := s.obs.Begin(s.node.Engine().Now(), obs.KindAnycast, obs.NoRef, int64(seq), 0)
	o.pending = append(o.pending, pendingAnycast{
		seq:          seq,
		group:        group,
		payload:      payload,
		cb:           caller,
		attemptsLeft: s.AnycastRetries,
		nextTimeout:  s.AnycastTimeout,
		launched:     s.node.Engine().Now(),
		trace:        trace,
	})
	s.wheelPush(s.node.Engine().Now()+s.AnycastTimeout, seq)
	s.sendAnycast(group, payload, seq, trace)
}

// originators is where originate carves the originator states, one slab an
// engine.
var originators = sim.NewLocal[sim.Slab[originator]]()

// originate returns the node's originator state, making it on first use.
func (s *Scribe) originate() *originator {
	if s.orig == nil {
		o := originators.Of(s.node.Engine()).New()
		o.pending, o.wheel, o.wheelDue = o.pendingBuf[:0], o.wheelBuf[:0], o.wheelDueBuf[:0]
		s.orig = o
	}
	return s.orig
}

// sendAnycast launches (or relaunches) the DFS for one attempt.
func (s *Scribe) sendAnycast(group ids.Id, payload simnet.Message, seq uint64, trace obs.Ref) {
	m := anycastShells.Of(s.node.Engine()).Take()
	*m = anycastMsg{Group: group, Payload: payload, Origin: s.node.Handle(), Seq: seq, Visited: m.Visited[:0], Trace: trace}
	// Fast path: if we are already in the tree, start the DFS locally.
	if s.group(group) != nil {
		s.anycastStep(m)
		return
	}
	s.node.Route(group, AppName, m)
}

// --- anycast timeout wheel ---------------------------------------------------

// The wheel runs only on behalf of pending queries, so its functions find the
// originator state in place: Anycast made it.

// wheelPush parks a deadline for seq and makes sure an engine event is armed
// no later than it.
func (s *Scribe) wheelPush(at time.Duration, seq uint64) {
	s.orig.wheel = append(s.orig.wheel, wheelEntry{at: at, seq: seq})
	s.armWheel()
}

// armWheel keeps exactly one live engine event aimed at the earliest still
// relevant deadline. Entries whose any-cast already resolved are pruned
// here, so a wheel full of resolved queries arms nothing.
func (s *Scribe) armWheel() {
	o := s.orig
	w := 0
	min := time.Duration(-1)
	for _, e := range o.wheel {
		if _, live := o.find(e.seq); !live {
			continue // resolved: drop the entry, never arm for it
		}
		o.wheel[w] = e
		w++
		if min < 0 || e.at < min {
			min = e.at
		}
	}
	o.wheel = o.wheel[:w]
	if min < 0 {
		return
	}
	if o.wheelArmed && o.wheelArmedAt <= min {
		return // the armed event already covers the earliest deadline
	}
	o.wheelArmed, o.wheelArmedAt = true, min
	o.wheelEpoch++
	t := wheelTimers.Of(s.node.Engine()).Take()
	*t = wheelTimer{s: s, epoch: o.wheelEpoch}
	s.node.Engine().AtHandler(min, t)
}

// wheelFire handles every deadline due at the current instant, then re-arms
// for the remainder.
func (s *Scribe) wheelFire() {
	o := s.orig
	now := s.node.Engine().Now()
	o.wheelArmed = false
	w := 0
	due := o.wheelDue[:0] // scratch: expireAnycast pushes onto o.wheel, never here
	for _, e := range o.wheel {
		if e.at <= now {
			due = append(due, e)
		} else {
			o.wheel[w] = e
			w++
		}
	}
	o.wheel = o.wheel[:w]
	for _, e := range due {
		s.expireAnycast(e.seq)
	}
	o.wheelDue = due[:0]
	s.armWheel()
}

// expireAnycast is the timeout path of one attempt: resend while the retry
// budget lasts, report failure once it is spent.
func (s *Scribe) expireAnycast(seq uint64) {
	o := s.orig
	i, ok := o.find(seq)
	if !ok {
		return // resolved before its deadline
	}
	p := o.pending[i]
	if p.attemptsLeft > 0 {
		p.attemptsLeft--
		p.nextTimeout *= 2
		o.pending[i] = p
		s.anycastsRetried.Inc()
		now := s.node.Engine().Now()
		o.retryWait.RecordDuration(now - p.launched)
		s.obs.Instant(now, obs.KindAnycastRetry, p.trace, int64(p.attemptsLeft), 0)
		s.wheelPush(now+p.nextTimeout, seq)
		s.sendAnycast(p.group, p.payload, seq, p.trace)
		return
	}
	o.pending = slices.Delete(o.pending, i, i+1)
	o.lat.RecordDuration(s.node.Engine().Now() - p.launched)
	s.obs.End(s.node.Engine().Now(), obs.KindAnycast, p.trace, 0, 0)
	p.cb.AnycastDone(AnycastResult{Trace: p.trace})
}

// anycastStep runs the DFS decision at this node.
func (s *Scribe) anycastStep(m *anycastMsg) {
	s.anycastsSeen.Inc()
	s.obs.Instant(s.node.Engine().Now(), obs.KindAnycastStep, m.Trace, int64(len(m.Visited)+1), int64(m.Origin.Addr))
	g := s.group(m.Group)
	if g == nil {
		// Tree ended unexpectedly (stale pointer); report failure.
		s.finishAnycast(m, false, pastry.NoHandle)
		return
	}
	self := s.node.Handle().Id
	if !m.visited(self) {
		if cap(m.Visited) == 0 {
			m.Visited = visitedLists.Of(s.node.Engine()).New()[:0]
		}
		m.Visited = append(m.Visited, self)
		if g.member && g.handlers.OnAnycast != nil {
			// Expose the walk's span while the member decides, so an accept
			// can parent the resources it reserves to this very search.
			s.curAnycast = m.Trace
			accepted := g.handlers.OnAnycast(m.Group, m.Payload, m.Origin)
			s.curAnycast = obs.NoRef
			if accepted {
				s.finishAnycast(m, true, s.node.Handle())
				return
			}
		}
	}
	// Prefer the unvisited child topologically closest to the origin, so
	// accepted work stays near the requester (paper §III.C step 2).
	if next := s.nextChild(g, m); !next.IsNil() {
		s.node.SendDirect(next, AppName, m)
		return
	}
	// Backtrack: a visited parent is only a relay at this point — it will
	// skip re-accepting (it is in Visited) and try its own next unvisited
	// child, or climb further. The search therefore terminates at the root
	// once the whole tree is exhausted.
	if !g.parent.IsNil() {
		s.node.SendDirect(g.parent, AppName, m)
		return
	}
	// Exhausted the tree.
	s.finishAnycast(m, false, pastry.NoHandle)
}

// nextChild returns the unvisited child of g that the search visits next: the
// minimum by (latency to the origin, ring distance to the origin,
// identifier), or NoHandle when every child has been visited. The children
// are sorted by identifier, so it searches instead of scanning: from the
// origin's rank it walks outward both ways at once, always taking the side
// closer to the origin by ring distance (ids.CloserTo's tie-break), which
// meets the children in (distance, identifier) order. The first unvisited
// child of each strictly lower latency is the best so far, and the walk stops
// once that latency is the proximity floor, which no later child can beat.
// An unvisited origin among the children sits at distance 0 and is met
// first. A step thus looks at the children around the origin, not at all of
// a hub's.
func (s *Scribe) nextChild(g *groupState, m *anycastMsg) pastry.NodeHandle {
	kids := g.children
	n := len(kids)
	next := pastry.NoHandle
	if n == 0 {
		return next
	}
	origin, floor := m.Origin, s.node.ProximityFloor()
	// [cw .. ccw], clockwise, is what the walk has yet to meet.
	cw, _ := g.childIndex(s.node, origin.Id)
	ccw := (cw - 1 + n) % n
	cw %= n
	var bestLat time.Duration
	for k := 0; k < n; k++ {
		var child pastry.NodeHandle
		if a, b := s.node.HandleOf(kids[cw]), s.node.HandleOf(kids[ccw]); ids.CloserTo(origin.Id, a.Id, b.Id) {
			child, cw = a, (cw+1)%n
		} else {
			child, ccw = b, (ccw-1+n)%n
		}
		if m.visited(child.Id) {
			continue
		}
		if l := s.node.LatencyBetween(child.Addr, origin.Addr); next.IsNil() || l < bestLat {
			next, bestLat = child, l
			if l <= floor {
				break
			}
		}
	}
	return next
}

// finishAnycast ends the walk at this node: the message is banked here, and
// the verdict resolves the query locally or travels in a shell of its own.
func (s *Scribe) finishAnycast(m *anycastMsg, accepted bool, by pastry.NodeHandle) {
	seq, group, payload, visited, trace, origin := m.Seq, m.Group, m.Payload, len(m.Visited), m.Trace, m.Origin
	m.Recycle(s.node.Engine())
	if origin.Addr == s.node.Addr() {
		// Local resolution: no wire verdict needed.
		s.resolveAnycast(seq, group, payload, accepted, by, visited, trace)
		return
	}
	v := verdictShells.Of(s.node.Engine()).Take()
	*v = anycastVerdict{
		Seq: seq, Accepted: accepted, By: by, Visited: visited,
		Group: group, Payload: payload, Trace: trace,
	}
	s.node.SendDirect(origin, AppName, v)
}

// handleVerdict resolves the query a verdict answers and banks the verdict.
func (s *Scribe) handleVerdict(v *anycastVerdict) {
	seq, group, payload, accepted, by, visited, trace := v.Seq, v.Group, v.Payload, v.Accepted, v.By, v.Visited, v.Trace
	v.Recycle(s.node.Engine())
	s.resolveAnycast(seq, group, payload, accepted, by, visited, trace)
}

func (s *Scribe) resolveAnycast(seq uint64, group ids.Id, payload simnet.Message, accepted bool, by pastry.NodeHandle, visited int, trace obs.Ref) {
	i, ok := 0, false
	if s.orig != nil {
		i, ok = s.orig.find(seq)
	}
	if !ok {
		// No pending entry: the query was fire-and-forget, the originator
		// already gave up on this sequence number, or an earlier attempt's
		// verdict resolved it. A rejection carries no state and can be
		// dropped, but an accept means some member reserved resources for
		// us — hand it to the orphan handler so they are released instead
		// of leaking.
		if accepted {
			s.orphanAccepts.Inc()
			s.obs.Instant(s.node.Engine().Now(), obs.KindOrphanAccept, trace, 0, int64(by.Addr))
			if o, ok := pastry.FindApp[OrphanAcceptor](s.node); ok {
				o.OrphanAccepted(group, payload, by)
			}
		}
		return
	}
	p := s.orig.pending[i]
	s.orig.pending = slices.Delete(s.orig.pending, i, i+1)
	var acceptedArg int64
	if accepted {
		acceptedArg = 1
	}
	s.orig.lat.RecordDuration(s.node.Engine().Now() - p.launched)
	s.obs.End(s.node.Engine().Now(), obs.KindAnycast, p.trace, int64(visited), acceptedArg)
	p.cb.AnycastDone(AnycastResult{Accepted: accepted, By: by, Visited: visited, Trace: p.trace})
}

// --- pastry up-calls ---------------------------------------------------------

// Deliver implements pastry.App: the message reached the node responsible
// for the group key.
func (s *Scribe) Deliver(key ids.Id, payload simnet.Message, info pastry.RouteInfo) {
	switch m := payload.(type) {
	case *joinMsg:
		// We are the rendezvous point for this group.
		g := s.stateFor(ids.Id(*m))
		g.root = true
		g.parent = pastry.NoHandle
		g.joining = false
		s.addChild(g, info.Source)
	case *multicastMsg:
		g := s.stateFor(m.Group)
		g.root = true
		s.disseminate(g, &multicastDown{Group: m.Group, Payload: m.Payload, From: m.From})
	case *anycastMsg:
		if s.group(m.Group) == nil {
			// No tree exists: nobody to accept.
			s.finishAnycast(m, false, pastry.NoHandle)
			return
		}
		s.anycastStep(m)
	case *rootProbe:
		if m.From.Id == s.node.ID() {
			return // still the rendezvous point
		}
		// The probing node is a stale root: key ownership moved here.
		g := s.stateFor(m.Group)
		g.root = true
		s.node.SendDirect(m.From, AppName, &rootDemote{Group: m.Group})
	}
}

// Forward implements pastry.App: intercept tree-building and anycast
// messages at nodes already in the tree. A join's child is the route's
// source: a forwarder that grafts it sends a join of its own.
func (s *Scribe) Forward(key ids.Id, payload simnet.Message, src, next pastry.NodeHandle) bool {
	switch m := payload.(type) {
	case *joinMsg:
		if src.Id == s.node.ID() {
			return true // our own join leaving the node; let it route
		}
		g := s.group(ids.Id(*m))
		if g != nil && !g.joining {
			s.addChild(g, src)
			return false // grafted; stop routing
		}
		// Not in the tree: become a forwarder, adopt the child, and send
		// our own join onward (standard Scribe graft).
		g = s.stateFor(ids.Id(*m))
		s.addChild(g, src)
		if !g.joining {
			s.sendJoin(g)
		}
		return false
	case *anycastMsg:
		if s.group(m.Group) != nil {
			s.anycastStep(m)
			return false
		}
		return true
	default:
		return true
	}
}

// HandleDirect implements pastry.App.
func (s *Scribe) HandleDirect(from pastry.NodeHandle, payload simnet.Message) {
	switch m := payload.(type) {
	case *joinAck:
		g := s.stateFor(ids.Id(*m))
		g.parent = from
		g.joining = false
		g.missedBeats = 0
	case *leaveMsg:
		if g := s.group(ids.Id(*m)); g != nil {
			s.dropChildOf(g, from.Id)
			s.maybePrune(g)
		}
	case *multicastDown:
		g := s.group(m.Group)
		if g == nil {
			return
		}
		// Only the current parent's copies count: a stale edge left by a
		// lossy re-graft would otherwise deliver duplicates. The sender is
		// told to drop the edge.
		if !g.parent.IsNil() && g.parent.Id != from.Id && !g.root {
			s.sendLeave(from, g)
			return
		}
		g.missedBeats = 0
		s.disseminate(g, m)
	case *anycastMsg:
		s.anycastStep(m)
	case *anycastVerdict:
		s.handleVerdict(m)
	case *rootDemote:
		if g := s.group(m.Group); g != nil && g.root {
			g.root = false
			g.parent = pastry.NoHandle
			s.sendJoin(g)
		}
	case *heartbeat:
		g := s.group(m.Group)
		if g == nil {
			return
		}
		switch {
		case g.root:
			// The rendezvous point takes no parent; tell the sender to
			// drop its stale edge.
			s.sendLeave(from, g)
		case g.parent.IsNil():
			// A lost join ack left us detached while the sender adopted
			// us. Adopting it back is safe only along the routing
			// gradient (parents numerically closer to the group key than
			// their children), which keeps the tree acyclic.
			if ids.CloserTo(m.Group, from.Id, s.node.ID()) {
				g.parent = from
				g.joining = false
				g.missedBeats = 0
			}
		case g.parent.Id == from.Id:
			g.missedBeats = 0
		default:
			// Heartbeat from a stale former parent: prune its edge.
			s.sendLeave(from, g)
		}
	case Upward:
		// The one interface case, behind every concrete one: a push that finds
		// no tree here (this node left it), or no listener, ends here, and a
		// payload that is a shell of its own is banked as the network banks
		// one it drops.
		if group := m.TreeGroup(); s.tree != nil && s.group(group) != nil {
			s.tree.ParentData(group, m, from)
		} else {
			simnet.Recycle(s.node.Engine(), m)
		}
	}
}

// TreeListener is the one hook between a node's group trees and the layer
// that keeps state per tree edge (the aggregation manager).
type TreeListener interface {
	// ChildDropped hears of every child edge removed from one of the node's
	// trees, with the group key and the departed child's identifier.
	// Additions are not reported: a new child has no effect on derived
	// per-child state until its first upward message.
	ChildDropped(group, child ids.Id)
	// ParentData receives a payload a child pushed up with SendToParent, in
	// a tree this node is still in.
	ParentData(group ids.Id, payload simnet.Message, from pastry.NodeHandle)
	// MemberData receives every multicast delivered to this node as a member
	// of group, after the group's own OnMulticast handler, if it has one.
	MemberData(group ids.Id, payload simnet.Message, from pastry.NodeHandle)
}

// SetTreeListener installs the node's one tree listener, or clears it with
// nil; a second non-nil one panics, as a second Register of a name does: it
// is a wiring bug.
func (s *Scribe) SetTreeListener(l TreeListener) {
	if s.tree != nil && l != nil {
		panic(fmt.Sprintf("scribe: a second tree listener on node %s", s.node.ID().Short()))
	}
	s.tree = l
}

// OrphanAcceptor is implemented by the application on an any-cast
// originator's node that is told of accepted verdicts with no pending
// callback — the originator timed out, or an earlier attempt's verdict
// already resolved the query. The acceptor is holding resources for such a
// verdict; the handler must release them. Scribe hands each one to the first
// registered application that implements it (pastry.FindApp).
type OrphanAcceptor interface {
	OrphanAccepted(group ids.Id, payload simnet.Message, by pastry.NodeHandle)
}

// dropChildOf removes a child edge and tells the tree listener; it reports
// whether the edge was present.
func (s *Scribe) dropChildOf(g *groupState, id ids.Id) bool {
	if !g.dropChild(s.node, id) {
		return false
	}
	if s.tree != nil {
		s.tree.ChildDropped(g.group, id)
	}
	return true
}

func (s *Scribe) addChild(g *groupState, child pastry.NodeHandle) {
	if child.Id == s.node.ID() {
		return
	}
	s.joinsHandled.Inc()
	g.putChild(s.node, child)
	s.node.SendDirect(child, AppName, (*joinAck)(&g.group))
}

// --- failure handling --------------------------------------------------------

// NodeDead implements pastry.DeathObserver: it repairs trees when Pastry
// declares a neighbor dead. If it was a parent, rejoin the group; if a child,
// drop it.
func (s *Scribe) NodeDead(h pastry.NodeHandle) {
	for _, key := range s.sortedGroupKeys() {
		g := s.group(key)
		if g == nil {
			continue
		}
		if g.parent.Id == h.Id && !g.parent.IsNil() {
			g.parent = pastry.NoHandle
			if g.member || len(g.children) > 0 {
				s.sendJoin(g)
			}
		}
		if s.dropChildOf(g, h.Id) {
			s.maybePrune(g)
		}
	}
}

// StartMaintenance begins the tree heartbeat protocol: parents beat to
// children every interval; a child missing three beats re-joins through
// routing, repairing stale tree edges that Pastry's failure detector missed.
func (s *Scribe) StartMaintenance(interval time.Duration) {
	up := s.upkeepState()
	if up.maintenance.Running() {
		return
	}
	up.interval = interval
	up.maintenance.Start((*maintenanceTick)(s))
}

// maintenanceTick is the Scribe as what its maintenance ticker runs.
type maintenanceTick Scribe

func (t *maintenanceTick) Fire() { (*Scribe)(t).maintenanceRound() }
func (t *maintenanceTick) Period() (*sim.Engine, time.Duration) {
	return t.node.Engine(), t.up.interval
}

// maintenanceRound is one heartbeat round over the node's groups.
func (s *Scribe) maintenanceRound() {
	for _, key := range s.sortedGroupKeys() {
		g := s.group(key)
		if g == nil {
			continue
		}
		if len(g.children) > 0 {
			// One heartbeat value per group per round; the message is
			// immutable so every child can share it.
			hb := &heartbeat{Group: g.group}
			for _, ref := range g.children {
				s.node.SendDirect(s.node.HandleOf(ref), AppName, hb)
			}
		}
		switch {
		case g.root:
			// Verify key ownership: routing may have healed around a
			// root promoted during a failure-detector mistake.
			s.node.Route(g.group, AppName, &rootProbe{Group: g.group, From: s.node.Handle()})
		case g.parent.IsNil():
			// A join (or its ack) was lost in flight: retry so the
			// node does not stay detached forever.
			if g.member || len(g.children) > 0 {
				s.sendJoin(g)
			}
		default:
			g.missedBeats++
			if g.missedBeats >= 3 {
				g.missedBeats = 0
				g.parent = pastry.NoHandle
				s.sendJoin(g)
			}
		}
	}
}

// StopMaintenance halts the heartbeat protocol.
func (s *Scribe) StopMaintenance() {
	if s.up != nil {
		s.up.maintenance.Stop()
	}
}

var (
	_ pastry.App           = (*Scribe)(nil)
	_ pastry.DeathObserver = (*Scribe)(nil)
)

// String identifies the instance in logs.
func (s *Scribe) String() string {
	return fmt.Sprintf("scribe[%s]", s.node.ID().Short())
}
