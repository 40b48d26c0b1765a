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
//   - band 1 — plain At/After/Every. The payload is constant; same-instant
//     order falls to the per-engine sequence counter. Band-1 events are
//     node-local by contract (they never race across shards), which is why a
//     per-engine tiebreak suffices.
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
	// free recycles popped events: every scheduled callback would otherwise
	// heap-allocate one *event, and large experiments schedule millions.
	// Events are strictly owned by the engine (never escape to callers), so
	// a popped event can be reused as soon as its callback is extracted.
	free []*event
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
	fn  func()
}

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

// push schedules fn with an explicit key, clamping past times to Now.
func (e *Engine) push(t time.Duration, key uint64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(e.newEvent(t, key, fn))
}

// At schedules fn to run at absolute virtual time t. Times in the past run
// at the current instant (they are clamped to Now).
//
// On a root of K ≥ 2 shards At panics: work on the root must declare its
// scheduling context (AtGlobal for drivers, AtKeyed for domain-keyed
// completions) so that same-instant ordering does not depend on the shard
// count.
func (e *Engine) At(t time.Duration, fn func()) {
	e.mustInit()
	if len(e.shards) > 1 {
		panic("sim: At on a sharded root engine; use AtGlobal/AfterGlobal/EveryGlobal (drivers) or AtKeyed (keyed completions)")
	}
	e.push(t, keyLocal, fn)
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
	e.atRoot(t, keyGlobal, fn, "global")
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
	e.atRoot(t, keyKeyed|(key&keyPayloadMax), fn, "keyed")
}

// atRoot schedules a band-2 or band-3 event on the root. A one-shard engine
// runs everything on its own goroutine and pushes it straight into its queue;
// a root of K ≥ 2 stages it, since the call may come from any shard.
func (e *Engine) atRoot(t time.Duration, key uint64, fn func(), band string) {
	e.mustInit()
	r := e.Root()
	if len(r.shards) == 1 {
		r.push(t, key, fn)
		return
	}
	if e != r {
		e.noteStaged(t, band)
	}
	r.staging.add(t, key, fn)
}

// newEvent takes an event from the free list, or allocates when the list is
// empty. The free list is bounded by the peak number of pending events.
func (e *Engine) newEvent(at time.Duration, key uint64, fn func()) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.at, ev.key, ev.seq, ev.fn = at, key, e.seq, fn
		return ev
	}
	return &event{at: at, key: key, seq: e.seq, fn: fn}
}

// After schedules fn to run delay after the current virtual time. Negative
// delays are treated as zero.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.At(e.now+delay, fn)
}

// Ticker repeatedly invokes a callback at a fixed virtual-time interval
// until stopped.
type Ticker struct {
	stopped bool
}

// Stop cancels future ticks. It is safe to call multiple times and from
// within the tick callback.
func (t *Ticker) Stop() { t.stopped = true }

func (e *Engine) every(interval time.Duration, fn func(), schedule func(time.Duration, func())) *Ticker {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			schedule(interval, tick)
		}
	}
	schedule(interval, tick)
	return t
}

// Every schedules fn to run every interval, with the first invocation after
// one full interval. It panics if interval is not positive.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	return e.every(interval, fn, e.After)
}

// EveryGlobal is Every in the global band: the ticker's callbacks run after
// all same-instant node work. Experiment samplers use it so their
// observations are taken at identical points at every shard count.
func (e *Engine) EveryGlobal(interval time.Duration, fn func()) *Ticker {
	return e.every(interval, fn, e.AfterGlobal)
}

// runEvent advances the clock to ev.at and executes it, recycling the event
// first (it is fully consumed, and fn may itself schedule and reuse it). A
// delivery event has no fn; its key, band 0, is the handler's payload as is.
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	fn, key := ev.fn, ev.key
	ev.fn = nil
	e.free = append(e.free, ev)
	if fn == nil {
		e.deliver(key)
		return
	}
	fn()
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
