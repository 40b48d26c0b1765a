// Package sim provides a deterministic discrete-event simulation engine.
//
// All v-Bundle experiments run on virtual time: the paper's 60-minute
// rebalancing runs (update interval 5 min, rebalance interval 25 min) execute
// in milliseconds of wall time, and identical seeds replay identical event
// orders, which the test suite relies on.
//
// There is one engine: a root driving K shards, the engines that run node
// work, each drained in time windows no other shard can reach into (the
// lookahead, the minimum cross-shard link latency, sizes them; see shard.go).
// A serial engine (NewEngine) is K = 1 by construction: it is its own only
// shard, one queue holds all of its events, and no other shard exists to
// bound its window, so Run and RunUntil drain it straight up to the deadline
// or the next sampler boundary — no barrier, no worker, no staging. A root of
// K ≥ 2 (NewShardedEngine) keeps the driver events in a queue of its own and
// runs its shards on one goroutine each.
//
// Every K orders same-instant events by the same key bands, which is what
// makes a K-shard run's output bit-identical to the one-shard run's
// (asserted by the sharded-equivalence property tests). The contract is
// stronger than "same metrics": each node's callbacks run in the same
// relative order at every K, so any per-node stream of observations is
// shard-count-invariant too. The internal/obs flight recorder is built
// directly on this — it stamps events with (virtual time, node, per-node
// sequence) and nothing else, which is why a serialized trace is
// byte-identical at any shard count (asserted by the trace shard-invariance
// test in internal/experiments).
package sim

import (
	"math/rand"
	"time"

	"vbundle/internal/obs"
)

// Same-instant events execute in key order, then scheduling order. The key's
// top two bits form a band that classifies the scheduling context, and the
// bands exist for exactly one reason: two events on different shards cannot
// be ordered by their per-engine sequence numbers, so every ordering decision
// that can cross a shard boundary must be decided by (at, key) alone.
//
//   - band 0 — network deliveries (AtDelivery). The payload is derived from
//     the traffic itself (the destination of a batch flush), so delivery
//     order is a property of the trace, not of which engine ran it. The
//     event carries no callback: the engine hands the payload to its one
//     delivery handler (SetDeliveryHandler).
//   - band 1 — plain At/After and node-band Tickers. The payload is
//     constant; same-instant order falls to the per-engine sequence counter.
//     Band-1 events are node-local by contract (they never race across
//     shards), which is why a per-engine tiebreak suffices.
//   - band 2 — AtGlobal/AfterGlobal/EveryGlobal: experiment drivers,
//     samplers, fault injectors. They run on the root engine, after all
//     same-instant node work, at every shard count.
//   - band 3 — AtKeyed: domain-keyed completions (e.g. a migration keyed by
//     VM id) scheduled from shard context onto the root engine. The caller's
//     key makes the merge order deterministic regardless of which shard
//     staged first.
const (
	keyBandShift         = 62
	keyDelivery   uint64 = 0 << keyBandShift
	keyLocal      uint64 = 1 << keyBandShift
	keyGlobal     uint64 = 2 << keyBandShift
	keyKeyed      uint64 = 3 << keyBandShift
	keyPayloadMax uint64 = 1<<keyBandShift - 1
)

// Engine is a discrete-event scheduler over a virtual clock. The zero value
// is not usable; construct engines with NewEngine or NewShardedEngine.
type Engine struct {
	now time.Duration
	seq uint64
	// events holds the pending events in (at, key, seq) order. Exactly one
	// goroutine touches it at a time (the engine's, or during sharded
	// barriers the root's).
	events *bucketQueue
	rng    *rand.Rand
	seed   int64
	// free recycles popped events: every scheduled callback would
	// otherwise heap-allocate one *event, and large experiments schedule
	// millions. Events are strictly owned by the engine (never escape to
	// callers), so a popped event can be banked as soon as its callback is
	// extracted; every event comes back when it runs, so none is dropped and
	// none pins its slab chunk.
	free Bank[event]
	// locals holds the goroutine-local values of the layers above, one slot a
	// Local; see local.go.
	locals []any
	// deliver runs every band-0 event with the event's payload: one handler
	// an engine, where a callback an event would be one closure a
	// destination.
	deliver func(key uint64)

	// shards are the engines that run node work; see shard.go. A root of
	// K ≥ 2 holds its K members, each of which points back at it through
	// root; every other engine is its own only shard, with shards backed by
	// self so that nothing is allocated for it.
	shards    []*Engine
	self      [1]*Engine
	root      *Engine
	lookahead time.Duration
	barriers  []func()
	staging   staging
	workers   workerPool

	// Per-shard dynamic-window state (see shard.go). drainLimit is the
	// exclusive end of the shard's current window, written by the root while
	// the shard is quiescent and shrunk by the shard's own events
	// (self-capping); draining records the shard's drain mode so scheduling
	// calls know whether they run inside a parallel window. The stat counters
	// feed ShardWork.
	drainLimit  time.Duration
	draining    int
	statEvents  uint64
	statWindows uint64
	statCaps    uint64

	// samplers are the registered virtual-time observation hooks (root
	// engine only); see AddSampler. depth, when attached via AttachObs,
	// records this engine's queue depth at every pop (a diagnostic
	// histogram: execution-shape dependent, excluded from determinism
	// comparisons).
	samplers []sampler
	depth    *obs.Histogram
}

// NewEngine returns a serial engine — one shard, itself — whose clock starts
// at zero and whose random source is seeded with seed, making runs
// reproducible.
func NewEngine(seed int64) *Engine {
	e := &Engine{
		events: newBucketQueue(),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
	e.self[0] = e
	e.shards = e.self[:]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seed returns the seed the engine's random source was constructed with.
// Components that need order-independent randomness under sharding (e.g. the
// network's per-message drop draws) derive their own hash streams from it.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source. On a sharded root
// it must only be drawn from global or exclusive context (between runs, or
// inside AtGlobal callbacks), so the draw order stays shard-count-invariant.
func (e *Engine) Rand() *rand.Rand {
	e.mustInit()
	return e.rng
}

type event struct {
	at  time.Duration
	key uint64
	seq uint64
	h   Handler
}

// Handler is what an event runs. Every band-1, -2 and -3 event carries one; a
// delivery event (band 0) carries none and runs the engine's delivery handler.
// An owner that schedules the same work again and again implements Handler
// once, on itself or on a named pointer type over itself, where a func()
// would bind a closure or a method value a scheduling site.
type Handler interface{ Fire() }

// funcHandler adapts a func() to Handler. A func value is one pointer, so the
// conversion allocates nothing: the func-taking entry points are adapters
// onto the one Handler path.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// before is the engine's total event order: timestamp, then key band/payload,
// then scheduling order. seq values are only comparable within one engine,
// which the key bands guarantee is the only place they are compared.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// mustInit catches use of a zero-value Engine (a nil-pointer deref waiting
// to happen deep inside an experiment) with an explanation at the call site.
func (e *Engine) mustInit() {
	if e.rng == nil {
		panic("sim: Engine not initialized; construct engines with NewEngine (the zero value is not usable)")
	}
}

// push schedules h with an explicit key, clamping past times to Now, and
// returns the queued event.
func (e *Engine) push(t time.Duration, key uint64, h Handler) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.newEvent(t, key, h)
	e.events.push(ev)
	return ev
}

// At schedules fn to run at absolute virtual time t. Times in the past run
// at the current instant (they are clamped to Now).
//
// On a root of K ≥ 2 shards At panics: work on the root must declare its
// scheduling context (AtGlobal for drivers, AtKeyed for domain-keyed
// completions) so that same-instant ordering does not depend on the shard
// count.
func (e *Engine) At(t time.Duration, fn func()) { e.at(t, funcHandler(fn)) }

// AtHandler is At for a Handler: an owner that schedules the same work
// again and again passes a record instead of binding a func each time.
func (e *Engine) AtHandler(t time.Duration, h Handler) { e.at(t, h) }

// at is At for a Handler: the one band-1 scheduling path.
func (e *Engine) at(t time.Duration, h Handler) {
	e.mustInit()
	if len(e.shards) > 1 {
		panic("sim: At on a sharded root engine; use AtGlobal/AfterGlobal/EveryGlobal (drivers) or AtKeyed (keyed completions)")
	}
	e.push(t, keyLocal, h)
}

// SetDeliveryHandler installs the function every delivery event of this
// engine runs, with the event's key. An engine has one: a second call — a
// second network on one engine — panics.
func (e *Engine) SetDeliveryHandler(fn func(key uint64)) {
	e.mustInit()
	if e.deliver != nil {
		panic("sim: a second delivery handler on one engine (one network an engine)")
	}
	e.deliver = fn
}

// AtDelivery schedules a network-delivery event (key band 0) whose
// same-instant order is decided by key alone, making delivery order
// independent of both the scheduling order and the shard layout. When it
// fires, the engine's delivery handler runs with key. key must fit in 62
// bits; simnet derives it from the traffic (the destination of a batch
// flush).
func (e *Engine) AtDelivery(t time.Duration, key uint64) {
	e.mustInit()
	if e.deliver == nil {
		panic("sim: AtDelivery on an engine without a delivery handler")
	}
	e.push(t, keyDelivery|(key&keyPayloadMax), nil)
}

// AtGlobal schedules an experiment-driver event: fault injections, samplers,
// workload refreshes — anything that observes or mutates cross-node state.
// At any instant, global events run after all node-level work, at every
// shard count; that shared rule is what keeps the event order independent of
// K. On a root of K ≥ 2 the event is staged (safe to call from shard context)
// and merged at the next barrier.
func (e *Engine) AtGlobal(t time.Duration, fn func()) {
	e.atRoot(t, keyGlobal, funcHandler(fn), "global")
}

// AfterGlobal schedules a global event delay after the root clock. It must
// be called from global or exclusive context (the root clock is stale inside
// a shard's window).
func (e *Engine) AfterGlobal(delay time.Duration, fn func()) {
	r := e.Root()
	r.mustInit()
	e.AtGlobal(r.now+delay, fn)
}

// AtKeyed schedules a domain-keyed event (key band 3) on the root engine:
// same-instant keyed events run after all node and global work, ordered by
// the caller's key, so the execution order is identical however many shards
// staged them. The canonical user is migration completion, keyed by VM id.
//
// At K ≥ 2 an event staged from shard context mid-window must lie at least
// one lookahead beyond the staging shard's clock (enforced by a panic; in
// practice migration durations are orders of magnitude larger), which keeps
// it beyond every shard's window horizon.
func (e *Engine) AtKeyed(t time.Duration, key uint64, fn func()) {
	e.AtKeyedHandler(t, key, funcHandler(fn))
}

// AtKeyedHandler is AtKeyed for a Handler: an owner that keeps its
// completion's state in a record of its own passes the record instead of
// binding a closure over the state.
func (e *Engine) AtKeyedHandler(t time.Duration, key uint64, h Handler) {
	e.atRoot(t, keyKeyed|(key&keyPayloadMax), h, "keyed")
}

// atRoot schedules a band-2 or band-3 event on the root. A one-shard engine
// runs everything on its own goroutine and pushes it straight into its queue;
// a root of K ≥ 2 stages it, since the call may come from any shard.
func (e *Engine) atRoot(t time.Duration, key uint64, h Handler, band string) {
	e.mustInit()
	r := e.Root()
	if len(r.shards) == 1 {
		r.push(t, key, h)
		return
	}
	if e != r {
		e.noteStaged(t, band)
	}
	r.staging.add(t, key, h)
}

// newEvent takes a banked event, or carves one when none is banked. The
// bank is bounded by the peak number of pending events.
func (e *Engine) newEvent(at time.Duration, key uint64, h Handler) *event {
	ev := e.free.Take()
	ev.at, ev.key, ev.seq, ev.h = at, key, e.seq, h
	return ev
}

// After schedules fn to run delay after the current virtual time. Negative
// delays are treated as zero.
func (e *Engine) After(delay time.Duration, fn func()) { e.at(e.now+delay, funcHandler(fn)) }

// AfterHandler is After for a Handler: an owner that schedules the same work
// again and again passes itself instead of binding a func each time.
func (e *Engine) AfterHandler(delay time.Duration, h Handler) { e.at(e.now+delay, h) }

// Periodic is what a Ticker runs: Fire is one tick's work, and Period names
// the engine the ticks run on and how far apart they are. An owner
// implements it on itself, or on a named pointer type over itself, and reads
// both from state it holds anyway (its node's engine, its configuration), so
// its Ticker keeps no copy of them.
type Periodic interface {
	Handler
	Period() (on *Engine, every time.Duration)
}

// Ticker runs a Periodic until stopped. It is a value its owner embeds, three
// words, and it is its own tick event's handler, so starting, stopping and
// restarting one allocates nothing. The zero value is stopped; a started
// Ticker must not be copied.
//
// Restart rule: a tick queued before a Stop never fires the ticker, however
// soon it is restarted, in the same instant as a tick included. Stop points
// the queued tick at a handler that does nothing, so the event still runs in
// its place, and the queue holds the events one fresh ticker a start would
// have scheduled. A global tick that a root of K ≥ 2 has staged and not yet
// merged is settled at the merge instead: of one ticker's staged ticks only
// the last can be live, and it is live unless a Stop came after it.
type Ticker struct {
	p Periodic
	// queued is the live tick's event, whose key also records the band the
	// ticker runs in. While no tick of a running ticker is in a queue it is
	// a sentinel: tickFiring while p's Fire runs, tickStaged while a root of
	// K ≥ 2 holds the tick for its next merge and tickMerging during the
	// merge. It is nil when the ticker is stopped.
	queued *event
}

var tickFiring, tickStaged, tickMerging event

// Start runs p every period in the node band (as After would), the first
// time one full period from now. It panics if the period is not positive,
// and does nothing if t is running.
func (t *Ticker) Start(p Periodic) { t.start(p, keyLocal) }

// StartGlobal is Start in the global band: the ticks run on the root after
// all same-instant node work (as AfterGlobal would).
func (t *Ticker) StartGlobal(p Periodic) { t.start(p, keyGlobal) }

func (t *Ticker) start(p Periodic, band uint64) {
	if t.queued != nil {
		return
	}
	t.p = p
	t.schedule(band)
}

// Running reports whether t is started and not stopped.
func (t *Ticker) Running() bool { return t.queued != nil }

// Stop cancels future ticks. It is safe to call multiple times and from
// within the tick's handler.
func (t *Ticker) Stop() {
	if q := t.queued; q != nil && q != &tickFiring && q != &tickStaged {
		q.h = stoppedTick{}
	}
	t.queued = nil
}

// schedule queues the next tick one period from now, in band.
func (t *Ticker) schedule(band uint64) {
	e, every := t.p.Period()
	if every <= 0 {
		panic("sim: a ticker with a non-positive period")
	}
	if band == keyLocal {
		e.mustInit()
		if len(e.shards) > 1 {
			panic("sim: a node-band ticker on a sharded root engine; use StartGlobal")
		}
		t.queued = e.push(e.now+every, keyLocal, t)
		return
	}
	r := e.Root()
	r.mustInit()
	if len(r.shards) == 1 {
		t.queued = r.push(r.now+every, keyGlobal, t)
		return
	}
	t.queued = &tickStaged
	e.atRoot(r.now+every, keyGlobal, t, "global")
}

// Fire implements Handler: one tick. Only the live tick reaches it. It runs
// p's Fire, then queues the next tick unless that stopped or restarted t.
// The band is read from the event that is running: runEvent has put it on
// the free list, and nothing reuses it before this returns or schedules.
func (t *Ticker) Fire() {
	band := t.queued.key
	t.queued = &tickFiring
	t.p.Fire()
	if t.queued == &tickFiring {
		t.schedule(band)
	}
}

// stoppedTick is what a tick queued before its ticker's Stop runs: nothing.
type stoppedTick struct{}

func (stoppedTick) Fire() {}

// funcTicker is a Periodic over a func, for EveryGlobal.
type funcTicker struct {
	t     Ticker
	e     *Engine
	every time.Duration
	fn    func()
}

func (f *funcTicker) Fire()                            { f.fn() }
func (f *funcTicker) Period() (*Engine, time.Duration) { return f.e, f.every }

// EveryGlobal runs fn every interval in the global band, the first time one
// full interval from now: the ticker's callbacks run after all same-instant
// node work. Experiment samplers use it so their observations are taken at
// identical points at every shard count. It panics if interval is not
// positive.
func (e *Engine) EveryGlobal(interval time.Duration, fn func()) *Ticker {
	f := &funcTicker{e: e, every: interval, fn: fn}
	f.t.StartGlobal(f)
	return &f.t
}

// runEvent advances the clock to ev.at and executes it, recycling the event
// first (it is fully consumed, and its handler may itself schedule and reuse
// it; until then its fields stay as they are, which is where a Ticker reads
// its band). A delivery event has no handler; its key, band 0, is the
// delivery handler's payload as is.
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	h, key := ev.h, ev.key
	ev.h = nil
	e.free.Put(ev)
	if h == nil {
		e.deliver(key)
		return
	}
	h.Fire()
}

// runDue executes the earliest pending event if its timestamp is at or
// before limit, and reports whether it did. It is the engine's one run loop
// body: the one-shard drain, the shard window and instant drains, the root's
// exclusive instants and Step all call it and differ only in the bound. The
// caller has fired every sampler boundary at or before limit.
func (e *Engine) runDue(limit time.Duration) bool {
	ev := e.events.front()
	if ev == nil || ev.at > limit {
		return false
	}
	e.depth.Record(int64(e.events.len()))
	e.events.pop()
	e.statEvents++
	e.runEvent(ev)
	return true
}

// Run executes events until none remain, leaving the clock at the last one.
// Periodic tickers must be stopped for Run to terminate.
func (e *Engine) Run() { e.runWindows(infTime) }

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to exactly the deadline. Events scheduled later remain
// pending.
func (e *Engine) RunUntil(deadline time.Duration) { e.runWindows(deadline) }

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Pending returns the number of events waiting to run, including staged
// cross-shard events not yet merged.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.events.len()
	}
	if len(e.shards) > 1 {
		// A root of K ≥ 2 keeps its own queue beside its shards'.
		n += e.events.len() + e.staging.len()
	}
	return n
}
