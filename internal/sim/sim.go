// Package sim provides a deterministic discrete-event simulation engine.
//
// All v-Bundle experiments run on virtual time: the paper's 60-minute
// rebalancing runs (update interval 5 min, rebalance interval 25 min) execute
// in milliseconds of wall time, and identical seeds replay identical event
// orders, which the test suite relies on.
//
// The engine comes in two execution modes with one ordering contract:
//
//   - Serial (NewEngine): one goroutine, callbacks run sequentially in
//     (timestamp, key, sequence) order, so simulation code needs no locking
//     of its own. This is the default and the reference implementation.
//   - Sharded (NewShardedEngine): a root engine coordinating K shard
//     engines, each drained by its own goroutine inside barrier-synchronized
//     time windows sized dynamically from the shards' queues and the
//     configured lookahead (the minimum cross-shard link latency). See
//     shard.go.
//
// Both modes order same-instant events by the same key bands, which is what
// makes the sharded engine's output bit-identical to the serial engine's
// (asserted by the sharded-equivalence property tests): the serial engine is
// simply the K=1 special case that never pays a barrier.
//
// The equivalence contract is stronger than "same metrics": each node's
// callbacks run in the same relative order in every mode, so any per-node
// stream of observations is mode-invariant too. The internal/obs flight
// recorder is built directly on this — it stamps events with (virtual time,
// node, per-node sequence) and nothing else, which is why a serialized trace
// is byte-identical between the serial and sharded engines at any shard
// count (asserted by the trace shard-invariance test in
// internal/experiments).
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
//     order is a property of the trace, not of which engine ran it.
//   - band 1 — plain At/After/Every. The payload is constant; same-instant
//     order falls to the per-engine sequence counter. Band-1 events are
//     node-local by contract (they never race across shards), which is why a
//     per-engine tiebreak suffices.
//   - band 2 — AtGlobal/AfterGlobal/EveryGlobal: experiment drivers,
//     samplers, fault injectors. They run on the root engine, after all
//     same-instant node work, in both modes.
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

	// Sharded-mode plumbing; see shard.go. shards is non-empty only on a
	// sharded root; root points back from a shard member to its root.
	shards    []*Engine
	root      *Engine
	shardIdx  int
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
	// samplerNext caches the earliest pending sampler boundary (infTime
	// when none), so the serial per-pop check in Step is one comparison
	// instead of a call that scans the sampler list on every event.
	// Maintained by AddSampler and fireSamplers.
	samplerNext time.Duration
}

// NewEngine returns a serial engine whose clock starts at zero and whose
// random source is seeded with seed, making runs reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{
		events:      newBucketQueue(),
		rng:         rand.New(rand.NewSource(seed)),
		seed:        seed,
		samplerNext: infTime,
	}
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

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
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
// On a sharded root At panics: work on the root must declare its scheduling
// context (AtGlobal for drivers, AtKeyed for domain-keyed completions) so
// that same-instant ordering does not depend on the shard count.
func (e *Engine) At(t time.Duration, fn func()) {
	e.mustInit()
	if len(e.shards) > 0 {
		panic("sim: At on a sharded root engine; use AtGlobal/AfterGlobal/EveryGlobal (drivers) or AtKeyed (keyed completions)")
	}
	e.push(t, keyLocal, fn)
}

// AtDelivery schedules a network-delivery event (key band 0) whose
// same-instant order is decided by key alone, making delivery order
// independent of both the scheduling order and the shard layout. key must
// fit in 62 bits; simnet derives it from the traffic (the destination of a
// batch flush).
func (e *Engine) AtDelivery(t time.Duration, key uint64, fn func()) {
	e.mustInit()
	e.push(t, keyDelivery|(key&keyPayloadMax), fn)
}

// AtGlobal schedules an experiment-driver event: fault injections, samplers,
// workload refreshes — anything that observes or mutates cross-node state.
// At any instant, global events run after all node-level work, in both the
// serial and the sharded engine; that shared rule is what keeps the two
// engines' event orders identical. On a sharded root the event is staged
// (safe to call from shard context) and merged at the next barrier.
func (e *Engine) AtGlobal(t time.Duration, fn func()) {
	e.mustInit()
	r := e.Root()
	if len(r.shards) > 0 {
		if e != r {
			e.noteStaged(t, "global")
		}
		r.staging.add(t, keyGlobal, fn)
		return
	}
	r.push(t, keyGlobal, fn)
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
// In sharded mode an event staged from shard context mid-window must lie at
// least one lookahead beyond the staging shard's clock (enforced by a panic;
// in practice migration durations are orders of magnitude larger), which
// keeps it beyond every shard's window horizon.
func (e *Engine) AtKeyed(t time.Duration, key uint64, fn func()) {
	e.mustInit()
	r := e.Root()
	if len(r.shards) > 0 {
		if e != r {
			e.noteStaged(t, "keyed")
		}
		r.staging.add(t, keyKeyed|(key&keyPayloadMax), fn)
		return
	}
	r.push(t, keyKeyed|(key&keyPayloadMax), fn)
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
// observations are taken at identical points in both engine modes.
func (e *Engine) EveryGlobal(interval time.Duration, fn func()) *Ticker {
	return e.every(interval, fn, e.AfterGlobal)
}

// runEvent advances the clock to ev.at and executes it, recycling the event
// first (it is fully consumed, and fn may itself schedule and reuse it).
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	e.free = append(e.free, ev)
	fn()
}

// runDue executes the earliest pending event if its timestamp is at or
// before limit, and reports whether it did. It is the engine's one run loop
// body: the serial Step/Run/RunUntil, the shard window and instant drains,
// the root's exclusive instants and the sharded Step all call it and differ
// only in the bound. Sampler boundaries at or before the event fire first;
// only a serial engine can have one pending here (shard engines carry no
// samplers, and a sharded root fires its own before it runs anything).
func (e *Engine) runDue(limit time.Duration) bool {
	if e.events == nil {
		return false
	}
	ev := e.events.front()
	if ev == nil || ev.at > limit {
		return false
	}
	if ev.at >= e.samplerNext {
		e.fireSamplers(ev.at)
	}
	e.depth.Record(int64(e.events.len()))
	e.events.pop()
	e.runEvent(ev)
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed. On a sharded root
// it pops the globally earliest event across all shards and runs it
// exclusively (no worker goroutines), which is how placement queries are
// driven to resolution.
func (e *Engine) Step() bool {
	if len(e.shards) > 0 {
		return e.shardedStep()
	}
	return e.runDue(infTime)
}

// Run executes events until none remain. Periodic tickers must be stopped
// for Run to terminate.
func (e *Engine) Run() {
	if len(e.shards) > 0 {
		e.runWindows(0, true)
		return
	}
	for e.runDue(infTime) {
	}
}

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to exactly the deadline. Events scheduled later remain
// pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	if len(e.shards) > 0 {
		e.runWindows(deadline, false)
		return
	}
	for e.runDue(deadline) {
	}
	// Sampling boundaries inside (now, deadline] fire even when no event
	// reaches them: an idle stretch still produces samples.
	e.fireSamplers(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Pending returns the number of events waiting to run, including staged
// cross-shard events not yet merged.
func (e *Engine) Pending() int {
	if e.events == nil {
		return 0
	}
	n := e.events.len()
	for _, s := range e.shards {
		n += s.events.len()
	}
	if len(e.shards) > 0 {
		n += e.staging.len()
	}
	return n
}
