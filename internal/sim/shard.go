package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Sharded execution: a conservative parallel discrete-event engine.
//
// A root Engine coordinates K shard Engines. Simulation state is partitioned
// across the shards (simnet assigns each node to the shard of a
// deterministic hash of its address), and every cross-shard interaction is a
// message with a nonzero link latency. That latency is the lookahead L: a
// shard executing an event at time t cannot affect another shard before t+L,
// so all shards drain their own queues in parallel, each on its own
// goroutine, up to a per-shard horizon no other shard can reach into. At the
// window barrier, cross-shard sends (parked in per-shard outboxes) are
// merged into the destination queues, ordered by their band-0 keys — which
// were assigned at send time from the traffic itself, so the merged order is
// identical to the order a one-shard engine produces.
//
// Windows are sized dynamically. Shard i's horizon for a window is
//
//	H_i = min(m_{-i} + L, next root event, next sampler boundary, deadline+1)
//
// where m_{-i} is the earliest pending event on any *other* shard: whatever
// the others do from m_{-i} onward, no consequence can land on shard i
// before m_{-i}+L, so everything earlier is safe to run now. A shard far
// ahead of its peers — or the only busy shard — gets an unbounded horizon
// instead of barrier-stepping every L, which is what lets a hot shard drain
// long stretches without serializing on the barrier.
//
// At K = 1 there is no other shard, so m_{-0} is +∞, and the root is its own
// shard, so the next root event is the shard's own next event and bounds
// nothing. Its window is bounded by the deadline and the next sampler
// boundary alone: no lookahead, barrier, staging or worker is needed, and
// the window loop drains it in place.
//
// Two in-window actions shrink a shard's own horizon after the fact
// (self-capping, always on the shard's own goroutine):
//
//   - Parking a cross-shard send arriving at a: the earliest consequence
//     for the sender (a reply, or a longer causal chain) is a+L, so the
//     shard caps its window at a+L.
//   - Staging a root event at g (AtGlobal/AtKeyed from shard context): the
//     root event must run exclusively before any node work at or after g,
//     so the shard caps at g. Other shards are protected by the staging
//     contract g ≥ now+L (enforced at the call site): their horizons are
//     at most m_i + L ≤ now_i + L ≤ g.
//
// At K ≥ 2 windows still end at the next root-engine event (global drivers,
// keyed completions): those run exclusively between windows, with every
// shard clock raised to the instant, exactly where a one-shard engine runs
// them (bands 2 and 3 sort after all same-instant node work).
type workerPool struct {
	cmds []chan shardCmd
	done chan struct{}
}

type shardCmd struct {
	// limit is the instant to drain in instant mode; window mode reads the
	// shard's own drainLimit field instead (it is mutable mid-drain).
	limit   time.Duration
	instant bool
}

// infTime is the "no bound" horizon.
const infTime = time.Duration(math.MaxInt64)

// Shard drain modes, tracked per shard engine so scheduling calls can tell
// whether they run inside a parallel window (drainModeWindow) where the
// staging contract and self-capping apply.
const (
	drainModeIdle = iota
	drainModeWindow
	drainModeInstant
)

// ShardStats reports one shard's share of a run's work: how many events it
// executed, how many windows it participated in, and how often it shortened
// its own window (cross-shard sends and staged root events).
type ShardStats struct {
	Events  uint64
	Windows uint64
	Caps    uint64
}

// ShardWork returns per-shard work counters, index-aligned with Shard(i): one
// entry for a serial engine. The counters accumulate across runs.
func (e *Engine) ShardWork() []ShardStats {
	r := e.Root()
	out := make([]ShardStats, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardStats{Events: s.statEvents, Windows: s.statWindows, Caps: s.statCaps}
	}
	return out
}

// capDrain shortens the shard's current drain window to end at t. It is only
// meaningful mid-drain on the shard's own goroutine; t is always beyond the
// event being executed (arrivals and staged instants are at least one
// lookahead ahead), so capping never prevents progress.
func (e *Engine) capDrain(t time.Duration) {
	if t < e.drainLimit {
		e.drainLimit = t
		e.statCaps++
	}
}

// NoteCrossShardSend tells the sending shard's engine that a message bound
// for another shard was parked with arrival time at. The earliest consequence
// that can come back to this shard is at+lookahead, so the current window is
// capped there. Outside a parallel window (setup, exclusive instants, a
// one-shard engine) this is a no-op: parked messages are merged before the
// next window's horizons are computed.
func (e *Engine) NoteCrossShardSend(at time.Duration) {
	if e.root == nil || e.draining != drainModeWindow {
		return
	}
	e.capDrain(at + e.root.lookahead)
}

// noteStaged enforces the staging contract for root events scheduled from
// shard context and self-caps the window at the staged instant. With the
// contract g ≥ now+lookahead every other shard's horizon already ends at or
// before g, so after the self-cap no shard runs node work at or beyond the
// staged instant — the root event executes in exactly the serial position.
func (e *Engine) noteStaged(at time.Duration, band string) {
	if e.draining != drainModeWindow {
		return
	}
	if at < e.now+e.root.lookahead {
		panic(fmt.Sprintf("sim: %s event staged at %v from shard context at %v (events staged mid-window must be scheduled at least one lookahead %v ahead)",
			band, at, e.now, e.root.lookahead))
	}
	e.capDrain(at)
}

// staging collects events scheduled onto the root from shard context
// (AtGlobal/AtKeyed during a window). It is the only cross-goroutine
// scheduling path, and the only mutex in the engine.
type staging struct {
	mu    sync.Mutex
	evs   []stagedEvent
	spare []stagedEvent
}

type stagedEvent struct {
	at  time.Duration
	key uint64
	h   Handler
}

func (g *staging) add(at time.Duration, key uint64, h Handler) {
	g.mu.Lock()
	g.evs = append(g.evs, stagedEvent{at: at, key: key, h: h})
	g.mu.Unlock()
}

func (g *staging) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.evs)
}

// take swaps out the staged batch (the caller processes it outside the lock)
// and installs the previous batch's backing array for reuse.
func (g *staging) take() []stagedEvent {
	g.mu.Lock()
	evs := g.evs
	g.evs = g.spare[:0]
	g.spare = nil
	g.mu.Unlock()
	return evs
}

func (g *staging) giveBack(buf []stagedEvent) {
	g.mu.Lock()
	g.spare = buf
	g.mu.Unlock()
}

// NewShardedEngine returns a root engine with shards shard engines; at
// shards ≤ 1 that is NewEngine(seed), its own only shard. The caller must
// partition its state across the shards (Shard(i) hands out the per-shard
// engines), set the lookahead to the minimum cross-shard latency when there
// are two or more, and may then drive the root exactly like a serial engine:
// Run, RunUntil, and Step produce the same observable execution as
// NewEngine(seed) would, for any shard count — the sharded-equivalence tests
// assert it.
func NewShardedEngine(seed int64, shards int) *Engine {
	r := NewEngine(seed)
	if shards <= 1 {
		return r
	}
	r.shards = make([]*Engine, shards)
	for i := range r.shards {
		// Shard rngs get derived seeds; deterministic code must not draw
		// from them (the draw order would depend on the shard layout), and
		// the simulation stack doesn't — nodes use per-node streams.
		s := NewEngine(seed + int64(i)*0x9E37 + 1)
		s.root = r
		r.shards[i] = s
	}
	return r
}

// Root returns the sharded root this engine belongs to, or the engine itself.
func (e *Engine) Root() *Engine {
	if e.root != nil {
		return e.root
	}
	return e
}

// ShardCount returns the number of shards: 1 for a serial engine.
func (e *Engine) ShardCount() int { return len(e.shards) }

// Shard returns shard i; shard 0 of a serial engine is the engine itself.
func (e *Engine) Shard(i int) *Engine { return e.shards[i] }

// SetLookahead declares the minimum latency of any cross-shard interaction;
// it bounds the parallel window width. Runs of K ≥ 2 shards panic without it.
func (e *Engine) SetLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: SetLookahead with non-positive lookahead")
	}
	e.Root().lookahead = d
}

// OnBarrier registers fn to run at every window barrier and exclusive
// instant, on the root goroutine with all shards idle. simnet uses it to
// merge cross-shard outboxes into destination inboxes; a serial engine has
// neither.
func (e *Engine) OnBarrier(fn func()) {
	r := e.Root()
	if len(r.shards) == 1 {
		panic("sim: OnBarrier on a serial engine")
	}
	r.barriers = append(r.barriers, fn)
}

func (r *Engine) runBarriers() {
	for _, fn := range r.barriers {
		fn()
	}
}

// mergeStaged moves staged root events into the root queue. The batch is
// sorted by (at, key) first: the staging order of a concurrent window is
// nondeterministic, the keys are not. A one-shard engine stages nothing.
func (r *Engine) mergeStaged() {
	if len(r.shards) == 1 {
		return
	}
	evs := r.staging.take()
	if len(evs) == 0 {
		r.staging.giveBack(evs)
		return
	}
	// Of one ticker's staged ticks only the last can be live, and only if
	// no Stop came after it (the ticker still reads tickStaged): a backward
	// pass keeps that one and points the others at stoppedTick.
	for i := len(evs) - 1; i >= 0; i-- {
		if t, ok := evs[i].h.(*Ticker); ok {
			if t.queued == &tickStaged {
				t.queued = &tickMerging
			} else {
				evs[i].h = stoppedTick{}
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].key < evs[j].key
	})
	for i := range evs {
		ev := &evs[i]
		if ev.key >= keyKeyed && ev.at < r.now {
			panic(fmt.Sprintf("sim: keyed event staged at %v behind the root clock %v (lookahead violation: keyed completions must be scheduled at least one window ahead)", ev.at, r.now))
		}
		if t, ok := ev.h.(*Ticker); ok {
			t.queued = r.push(ev.at, ev.key, t)
		} else {
			r.push(ev.at, ev.key, ev.h)
		}
		ev.h = nil
	}
	r.staging.giveBack(evs[:0])
}

// drainWindow runs every pending event with at < drainLimit (worker
// goroutine). The limit is re-read every iteration: the events themselves
// shrink it when they park cross-shard sends or stage root events.
func (s *Engine) drainWindow() {
	s.draining = drainModeWindow
	s.statWindows++
	for s.runDue(s.drainLimit - 1) { // drainLimit is exclusive
	}
	s.draining = drainModeIdle
}

// drainInstant runs every pending event at exactly g (worker goroutine).
func (s *Engine) drainInstant(g time.Duration) {
	s.draining = drainModeInstant
	for s.runDue(g) {
	}
	s.draining = drainModeIdle
}

func (p *workerPool) start(r *Engine) {
	p.done = make(chan struct{}, len(r.shards))
	p.cmds = make([]chan shardCmd, len(r.shards))
	for i, s := range r.shards {
		c := make(chan shardCmd, 1)
		p.cmds[i] = c
		go func(c chan shardCmd, s *Engine) {
			for cmd := range c {
				if cmd.instant {
					s.drainInstant(cmd.limit)
				} else {
					s.drainWindow()
				}
				p.done <- struct{}{}
			}
		}(c, s)
	}
}

func (p *workerPool) stop() {
	for _, c := range p.cmds {
		close(c)
	}
	p.cmds = nil
	p.done = nil
}

// dispatch hands cmd to every shard with relevant work and waits for all of
// them — the barrier. The first busy shard drains inline on the root
// goroutine, so a window with one busy shard costs no synchronization.
func (r *Engine) dispatch(cmd shardCmd, busy func(*Engine) bool) {
	first := -1
	sent := 0
	for i, s := range r.shards {
		if !busy(s) {
			continue
		}
		if first < 0 {
			first = i
			continue // run the first busy shard inline below
		}
		r.workers.cmds[i] <- cmd
		sent++
	}
	if first >= 0 {
		s := r.shards[first]
		if cmd.instant {
			s.drainInstant(cmd.limit)
		} else {
			s.drainWindow()
		}
	}
	for ; sent > 0; sent-- {
		<-r.workers.done
	}
}

// nextAt returns the earliest pending instant on the root and its shards.
func (r *Engine) nextAt() (time.Duration, bool) {
	min, ok := r.events.nextAt()
	for _, s := range r.shards {
		if at, has := s.events.nextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

func (r *Engine) anyShardAt(g time.Duration) bool {
	for _, s := range r.shards {
		if at, has := s.events.nextAt(); has && at == g {
			return true
		}
	}
	return false
}

// runWindows is the one run loop, behind Run (deadline infTime) and RunUntil.
func (r *Engine) runWindows(deadline time.Duration) {
	r.mustInit()
	one := len(r.shards) == 1
	if !one {
		if r.lookahead <= 0 {
			panic("sim: sharded run without SetLookahead (the minimum cross-shard link latency)")
		}
		r.mergeStaged()
		r.runBarriers()
		r.workers.start(r)
		defer r.workers.stop()
	}
	for {
		if one {
			// K = 1: the horizon is +∞, so the window ends at the deadline
			// or just before the next sampler boundary, whichever is first.
			limit := deadline
			if len(r.samplers) > 0 {
				limit = min(limit, r.nextSamplerAt()-1)
			}
			r.statWindows++
			for r.runDue(limit) {
			}
			if limit == deadline {
				break // nothing at or before the deadline is left
			}
		}
		tMin, ok := r.nextAt()
		if !ok || tMin > deadline {
			break
		}
		// Sampling boundaries at or before the next event fire now, with
		// every worker idle and every clock raised to the boundary — the
		// same between-events instant at every K. After this, the earliest
		// pending boundary is strictly after tMin.
		r.fireSamplers(tMin)
		if one {
			continue
		}
		if rootEv := r.events.front(); rootEv != nil && rootEv.at == tMin {
			// A root event is next: run the whole instant exclusively, node
			// work first, then global/keyed events — the one-shard order.
			r.runInstant(tMin)
		} else {
			r.openWindows(deadline, rootEv)
		}
		r.runBarriers()
		r.mergeStaged()
	}
	if deadline == infTime {
		// Run leaves every clock at the globally last executed event.
		deadline = r.now
		for _, s := range r.shards {
			deadline = max(deadline, s.now)
		}
	} else {
		// Sampling boundaries inside (now, deadline] fire even when no event
		// reaches them: an idle stretch still produces samples.
		r.fireSamplers(deadline)
	}
	r.raiseClocks(deadline)
}

// raiseClocks brings the root's clock and every shard's clock up to t. Every
// instant that runs outside a window goes through it before anything at t
// can read a clock: an exclusive instant, a sampler boundary, a Step, and
// the end of a run. A shard left behind would stamp the work started from
// outside the engine (a send, a timer) with a time the other shards have
// passed.
func (r *Engine) raiseClocks(t time.Duration) {
	r.now = max(r.now, t)
	for _, s := range r.shards {
		s.now = max(s.now, t)
	}
}

// openWindows runs one parallel window of a root of K ≥ 2. Shard i may
// safely run everything before m_{-i} + lookahead, the earliest instant any
// other shard could reach into it. The two smallest shard minima give m_{-i}
// for every i: the min-holder sees the second minimum, everyone else the
// minimum. A shard with no busy peers gets an unbounded horizon, bounded only
// by the next root event, the next sampling boundary (no shard may execute
// an event at or past it before it fires; drainLimit is exclusive, so
// capping at the boundary is exact) and the deadline; self-caps shrink it
// mid-drain as cross-shard effects appear.
func (r *Engine) openWindows(deadline time.Duration, rootEv *event) {
	min1, min2 := infTime, infTime
	min1Idx := -1
	for i, s := range r.shards {
		if at, has := s.events.nextAt(); has {
			if at < min1 {
				min2 = min1
				min1, min1Idx = at, i
			} else if at < min2 {
				min2 = at
			}
		}
	}
	bound := r.nextSamplerAt()
	if rootEv != nil {
		bound = min(bound, rootEv.at)
	}
	if deadline < bound-1 {
		bound = deadline + 1 // the window must include events at the deadline itself
	}
	for i, s := range r.shards {
		other := min1
		if i == min1Idx {
			other = min2
		}
		s.drainLimit = bound
		if other != infTime {
			s.drainLimit = min(bound, other+r.lookahead)
		}
	}
	r.dispatch(shardCmd{}, func(s *Engine) bool {
		at, has := s.events.nextAt()
		return has && at < s.drainLimit
	})
}

// runInstant executes everything scheduled at exactly g: first all shard
// events at g (in parallel — cross-shard effects of same-instant node work
// cannot land before g+lookahead), then the root's global and keyed events
// one at a time, re-draining any shard work each one spawns at g. This is
// precisely the serial pop order at g: band 0/1 events, then bands 2 and 3
// by key.
func (r *Engine) runInstant(g time.Duration) {
	r.raiseClocks(g)
	for {
		if r.anyShardAt(g) {
			r.dispatch(shardCmd{limit: g, instant: true}, func(s *Engine) bool {
				at, has := s.events.nextAt()
				return has && at == g
			})
			r.runBarriers()
			r.mergeStaged()
			continue
		}
		if !r.runDue(g) {
			return
		}
		r.mergeStaged()
		r.runBarriers()
	}
}

// Step executes the single earliest pending event, advancing every clock to
// its timestamp, and reports whether there was one. It pops the globally
// earliest event across the root and all shards and runs it on the caller's
// goroutine (no workers), which is how placement queries are driven to
// resolution. Every shard's clock, not only the owner's, stands at the
// event's time, so what the caller starts on any node between two steps is
// stamped with the time a serial engine would give it.
// Cross-engine ties are decided by (at, key); the remaining tie (same
// instant, same key on two engines) is broken by engine order, which is
// deterministic for a fixed shard count. Step-driven phases are exclusive by
// construction, so this is their whole execution model.
func (r *Engine) Step() bool {
	r.mustInit()
	r.mergeStaged()
	r.runBarriers()
	best := r.events.front()
	owner := r
	for _, s := range r.shards {
		ev := s.events.front()
		if ev == nil {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.key < best.key) {
			best, owner = ev, s
		}
	}
	if best == nil {
		return false
	}
	if len(r.samplers) > 0 {
		r.fireSamplers(best.at)
	}
	r.raiseClocks(best.at)
	owner.runDue(best.at)
	r.mergeStaged()
	r.runBarriers()
	return true
}
