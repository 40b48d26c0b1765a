// Package obs is the virtual-time flight recorder and counter registry for
// the v-Bundle stack: typed events at every protocol decision point (route
// hops, anycast walks, lease grants, migrations, fault injections), each
// carrying a causal parent reference so a migration can be traced back to
// the anycast that discovered its receiver.
//
// Determinism is the design constraint. Events are stamped with the virtual
// clock and a per-source sequence number — never wall time — and sources are
// the per-node event streams the engine already executes in a deterministic
// order (see the equivalence contract in internal/sim). The canonical event
// order is (timestamp, source, sequence), which every engine mode produces
// identically: a serialized trace is byte-identical between the serial
// engine and a sharded engine at any shard count.
//
// The disabled path is a nil *Source: every emit method is nil-receiver
// safe, so instrumented components hold a nil source when tracing is off and
// pay a single branch per site (benchmarked at well under 2 ns, zero
// allocations).
package obs

import (
	"sort"
	"sync"
	"time"
)

// Ref identifies a span for causal linking: the emitting source and its
// sequence number packed as (source+1)<<40 | seq. Refs are deterministic —
// they never come from a global counter, whose value would depend on the
// shard layout.
type Ref uint64

// NoRef is the absent reference (no causal parent, no span).
const NoRef Ref = 0

// RootSource is the source id for events emitted outside any node's
// execution context: migration completions and other work running
// exclusively on the root engine. It sorts after every node address.
const RootSource = 1 << 20

// Kind is the typed identity of an event.
type Kind uint8

// Event kinds, one per instrumented decision point.
const (
	// KindRouteHop is one pastry forwarding decision (A = hop count so
	// far, B = next-hop address).
	KindRouteHop Kind = iota + 1
	// KindDeliver is a pastry message reaching its final destination
	// (A = hops travelled).
	KindDeliver
	// KindAnycast spans one originator-side anycast from launch to verdict
	// (A = visited count at resolution, B = 1 if accepted).
	KindAnycast
	// KindAnycastStep is one DFS visit at a tree node (A = visited count,
	// B = origin address).
	KindAnycastStep
	// KindAnycastRetry is an originator resend after a silent timeout
	// (A = attempts left).
	KindAnycastRetry
	// KindOrphanAccept is an accepted verdict arriving with no pending
	// callback (B = acceptor address).
	KindOrphanAccept
	// KindAggUpdate is one aggregation fold-and-forward at a tree node
	// (A = info-base children folded, B = subtree sample count).
	KindAggUpdate
	// KindRoleFlip is a shedder/receiver classification change
	// (A = new role, B = old role, in rebalance.Role values).
	KindRoleFlip
	// KindLease spans a receiver-side hold from grant to release/expiry
	// (A = VM id; B at end: 0 released, 1 expired).
	KindLease
	// KindLeaseRenew refreshes a hold in place (A = VM id).
	KindLeaseRenew
	// KindMigration spans a VM transfer from start to arrival or failure
	// (A = VM id; B at begin: destination server; B at end: outcome,
	// 0 success, 1 destination dead, 2 source dead, 3 admission failed).
	KindMigration
	// KindDrop is a message lost to the drop rate or a link fault
	// (A = destination address, B = wire size).
	KindDrop
	// KindBoot spans one boot request through the serving layer, from
	// submission to placement or failure (A = VM id; B at begin: 1 if the
	// resolution cache was hot for the customer; B at end: accepting server,
	// -1 on failure). Begins on the root source (submissions run at
	// exclusive instants) and ends on the gateway node's source, joined by
	// the span ref — the same split the migration span uses.
	KindBoot
	// KindBootShed is an admission-control rejection (A = in-flight boots at
	// the decision, B = the configured limit).
	KindBootShed
	// KindTerminate is a serve-layer terminate request (A = VM id,
	// B = the server whose capacity it freed, -1 on a miss).
	KindTerminate
	// KindCrash is a node crash: the handler is discarded, so the node
	// loses all soft state and can only come back through KindRestart plus
	// whatever its durable store held.
	KindCrash
	// KindRestart is a crashed node rebooting with a blank handler, emitted
	// just before the restarter rebuilds the stack.
	KindRestart
	// KindRejoin spans the post-restart reconciliation against the live
	// ring, from the first announce to the last lease verdict (A at begin:
	// checkpointed peers skipped because this ring has no such node; B at
	// begin: 1 if the durable store held state, 0 on a blank boot; A at
	// end: re-adopted leases; B at end: released/dropped orphans).
	KindRejoin
	// KindLeaseAdopt is one persisted lease's rejoin verdict (A = VM id,
	// B = 0 re-adopted, 1 released/dropped).
	KindLeaseAdopt
	// KindAuditViolation is one failed check in an online invariant sweep
	// (A = the audit.Check id, B = the offending entity: node address or
	// VM id, -1 when not applicable).
	KindAuditViolation
)

// String returns the kind's trace_event name.
func (k Kind) String() string {
	switch k {
	case KindRouteHop:
		return "route_hop"
	case KindDeliver:
		return "deliver"
	case KindAnycast:
		return "anycast"
	case KindAnycastStep:
		return "anycast_step"
	case KindAnycastRetry:
		return "anycast_retry"
	case KindOrphanAccept:
		return "orphan_accept"
	case KindAggUpdate:
		return "agg_update"
	case KindRoleFlip:
		return "role_flip"
	case KindLease:
		return "lease"
	case KindLeaseRenew:
		return "lease_renew"
	case KindMigration:
		return "migration"
	case KindDrop:
		return "drop"
	case KindBoot:
		return "boot"
	case KindBootShed:
		return "boot_shed"
	case KindTerminate:
		return "terminate"
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	case KindRejoin:
		return "rejoin"
	case KindLeaseAdopt:
		return "lease_adopt"
	case KindAuditViolation:
		return "audit_violation"
	default:
		return "unknown"
	}
}

// Subsystem returns the trace_event category (the tid lane in the Chrome
// view) the kind belongs to.
func (k Kind) Subsystem() string {
	switch k {
	case KindRouteHop, KindDeliver:
		return "pastry"
	case KindAnycast, KindAnycastStep, KindAnycastRetry, KindOrphanAccept:
		return "scribe"
	case KindAggUpdate:
		return "aggregation"
	case KindRoleFlip, KindLease, KindLeaseRenew:
		return "rebalance"
	case KindMigration:
		return "migration"
	case KindDrop, KindCrash, KindRestart:
		return "net"
	case KindBoot, KindBootShed, KindTerminate:
		return "serve"
	case KindRejoin, KindLeaseAdopt:
		return "recovery"
	case KindAuditViolation:
		return "audit"
	default:
		return "other"
	}
}

// kindFromName inverts String for the trace reader.
func kindFromName(name string) Kind {
	for k := KindRouteHop; k <= KindAuditViolation; k++ {
		if k.String() == name {
			return k
		}
	}
	return 0
}

// Event phases, following the Chrome trace_event convention.
const (
	// PhaseBegin opens an async span identified by Span.
	PhaseBegin = 'b'
	// PhaseEnd closes the span.
	PhaseEnd = 'e'
	// PhaseInstant is a point event.
	PhaseInstant = 'i'
)

// Event is one recorded occurrence. The (TS, Src, Seq) triple is the
// canonical total order; Span and Parent are the causal links.
type Event struct {
	// TS is the virtual time of the event.
	TS time.Duration
	// Src is the emitting source (node address, or RootSource).
	Src int32
	// Seq is the source's monotonic emission counter (1-based).
	Seq uint64
	// Kind and Phase type the event.
	Kind  Kind
	Phase byte
	// Span is the async span reference for PhaseBegin/PhaseEnd events.
	Span Ref
	// Parent is the causal parent span (NoRef when the event is a root
	// cause).
	Parent Ref
	// A and B are kind-specific arguments (see the Kind constants).
	A, B int64
}

// Ref returns the event's own reference.
func (e Event) Ref() Ref { return Ref(uint64(e.Src)+1)<<40 | Ref(e.Seq) }

// Source is one node's event stream. Exactly one goroutine emits to a
// source at any instant — the node's shard goroutine during engine windows,
// the root goroutine at exclusive instants — the same single-owner
// discipline the rest of the stack already follows, so emission needs no
// locking. A nil *Source is the disabled recorder: every method returns
// immediately after one branch.
type Source struct {
	id   int32
	ring int // > 0 bounds buf to the last ring events
	seq  uint64
	buf  []Event
}

// Enabled reports whether the source records anything.
func (s *Source) Enabled() bool { return s != nil }

func (s *Source) emit(ev Event) Ref {
	s.seq++
	ev.Src = s.id
	ev.Seq = s.seq
	if s.ring > 0 && len(s.buf) >= s.ring {
		s.buf[int((s.seq-1)%uint64(s.ring))] = ev
	} else {
		s.buf = append(s.buf, ev)
	}
	return ev.Ref()
}

// Begin opens an async span and returns its reference for causal linking
// and the matching End.
func (s *Source) Begin(ts time.Duration, k Kind, parent Ref, a, b int64) Ref {
	if s == nil {
		return NoRef
	}
	ref := Ref(uint64(s.id)+1)<<40 | Ref(s.seq+1)
	return s.emit(Event{TS: ts, Kind: k, Phase: PhaseBegin, Span: ref, Parent: parent, A: a, B: b})
}

// End closes the span opened by Begin. It may run on a different source
// than the Begin (a migration starts on the shedder and completes on the
// root); the span reference joins the two halves.
func (s *Source) End(ts time.Duration, k Kind, span Ref, a, b int64) {
	if s == nil {
		return
	}
	s.emit(Event{TS: ts, Kind: k, Phase: PhaseEnd, Span: span, A: a, B: b})
}

// Instant records a point event with an optional causal parent.
func (s *Source) Instant(ts time.Duration, k Kind, parent Ref, a, b int64) {
	if s == nil {
		return
	}
	s.emit(Event{TS: ts, Kind: k, Phase: PhaseInstant, Parent: parent, A: a, B: b})
}

// events returns the retained events in emission order, unwinding the ring.
func (s *Source) events() []Event {
	if s.ring <= 0 || s.seq <= uint64(len(s.buf)) {
		return s.buf
	}
	// The ring wrapped: the oldest retained event sits right after the
	// newest write position.
	out := make([]Event, 0, len(s.buf))
	start := int(s.seq % uint64(s.ring))
	out = append(out, s.buf[start:]...)
	out = append(out, s.buf[:start]...)
	return out
}

// Trace owns the per-source buffers and the counter registry for one
// simulation run. A nil *Trace is fully disabled: Source and Registry
// return nil, which every downstream consumer accepts.
type Trace struct {
	ring        int
	metricsOnly bool

	// mu guards source registration only; components create their sources
	// at construction, never on the emit path.
	mu      sync.Mutex
	sources map[int32]*Source

	reg    Registry
	series *Series
}

// New creates a streaming trace: every source keeps all its events for a
// full-fidelity trace file at run end.
func New() *Trace { return &Trace{sources: make(map[int32]*Source)} }

// NewRing creates a bounded trace: every source keeps only its last n
// events — the always-on "what just happened" crash-dump recorder, with
// recording cost but no unbounded memory.
func NewRing(n int) *Trace {
	if n <= 0 {
		n = 1
	}
	return &Trace{ring: n, sources: make(map[int32]*Source)}
}

// NewMetrics creates a metrics-only trace: a live registry (and series,
// once enabled) with no event recording at all — Source returns the nil
// source, so every instrumented site stays on its one-branch disabled
// path. This is what `-sample-every` or `-counters` alone select: the
// sampler's cost is then just the boundary snapshots, not per-event
// recording.
func NewMetrics() *Trace { return &Trace{metricsOnly: true, sources: make(map[int32]*Source)} }

// Source returns (creating on first use) the event stream for one source
// id — a node address, or RootSource. On a nil trace — and on a
// metrics-only trace, which records no events — it returns the nil
// source, whose emit methods are no-ops.
func (t *Trace) Source(id int32) *Source {
	if t == nil || t.metricsOnly {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sources[id]
	if !ok {
		s = &Source{id: id, ring: t.ring}
		t.sources[id] = s
	}
	return s
}

// Registry returns the trace's counter/gauge registry (nil on a nil trace;
// registry methods are nil-receiver safe).
func (t *Trace) Registry() *Registry {
	if t == nil {
		return nil
	}
	return &t.reg
}

// EnableSeries attaches (or returns the existing) virtual-time sample
// series to the trace. The trace only holds the series; sim.AttachObs is
// what schedules the actual sampling on the engine clock.
func (t *Trace) EnableSeries(every time.Duration) *Series {
	if t == nil {
		return nil
	}
	if t.series == nil {
		t.series = NewSeries(every)
	}
	return t.series
}

// Series returns the attached sample series, or nil when sampling is off.
func (t *Trace) Series() *Series {
	if t == nil {
		return nil
	}
	return t.series
}

// Events returns every retained event in the canonical (TS, Src, Seq)
// order. Per-source emission order is deterministic for any engine shard
// count, and the canonical sort erases the only remaining degree of freedom
// (which goroutine's buffer is visited first), so the result is identical
// across engine modes.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := make([]int32, 0, len(t.sources))
	total := 0
	for id, s := range t.sources {
		ids = append(ids, id)
		total += len(s.buf)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Event, 0, total)
	for _, id := range ids {
		out = append(out, t.sources[id].events()...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	return out
}
