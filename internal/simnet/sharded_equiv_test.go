package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vbundle/internal/sim"
)

// shardedTraceResult is everything observable about one trace run: each
// node's delivery sequence (timestamp, sender, payload — in delivery order)
// and the final traffic counters.
type shardedTraceResult struct {
	seen     [][]string
	counters []Counters
}

// runShardedTrace drives one network through a pseudo-random trace of send
// bursts, liveness flips, and randomized node faults (pauses and crashes,
// some with a restart) on an engine of shards shards; 0 and 1 are the
// one-shard reference. The trace is constructed identically for every shard
// count: sends are injected as node-local events on the sending node's own
// engine, liveness flips and faults go through the global band, so the
// observable outcome must be bit-identical at any shard count.
func runShardedTrace(seed int64, shards int) shardedTraceResult {
	return runShardedTraceOn(seed, shards, nil)
}

// runShardedTraceOn is runShardedTrace with a hook that sees the network
// between construction and the first send.
func runShardedTraceOn(seed int64, shards int, prepare func(*Network)) shardedTraceResult {
	const size = 12
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewShardedEngine(99, shards)
	eng.SetLookahead(10 * time.Microsecond)
	latency := func(a, b Addr) time.Duration {
		return time.Duration((int(a)*7+int(b)*13)%23+1) * 10 * time.Microsecond
	}
	net := New(eng, size, latency, WithDropRate(0.2))
	if prepare != nil {
		prepare(net)
	}
	res := shardedTraceResult{seen: make([][]string, size)}
	handlers := make([]Handler, size)
	for i := 0; i < size; i++ {
		dst := Addr(i)
		handlers[i] = HandlerFunc(func(from Addr, msg Message) {
			res.seen[dst] = append(res.seen[dst],
				fmt.Sprintf("%v:%d:%v", net.EngineFor(dst).Now(), from, msg))
		})
		net.Attach(dst, handlers[i])
	}
	// Crashed nodes come back through the restarter, re-attaching the same
	// recording handler (the real stack would rebuild a node here).
	net.SetRestarter(func(addr Addr) { net.Attach(addr, handlers[addr]) })
	// Randomized node faults: pauses (Kill, then maybe Revive) and true
	// crashes (Crash, then maybe Restart). Fault targets come from the lower
	// half of the address space (each distinct) and random liveness flips
	// from the upper half, so a blind Revive never races a crash that
	// discarded the handler.
	for _, a := range rng.Perm(size / 2)[:3] {
		addr := Addr(a)
		at := time.Duration(rng.Intn(2500)) * 10 * time.Microsecond
		down, up := net.Kill, net.Revive
		if rng.Intn(2) == 0 {
			down, up = net.Crash, net.Restart
		}
		eng.AtGlobal(at, func() { down(addr) })
		if rng.Intn(2) == 0 {
			eng.AtGlobal(at+time.Duration(rng.Intn(500)+1)*10*time.Microsecond, func() { up(addr) })
		}
	}
	for op := 0; op < 400; op++ {
		at := time.Duration(rng.Intn(3000)) * 10 * time.Microsecond
		switch rng.Intn(8) {
		case 0: // liveness flip in the global band (cross-node state)
			target := Addr(size/2 + rng.Intn(size/2))
			if rng.Intn(2) == 0 {
				eng.AtGlobal(at, func() { net.Kill(target) })
			} else {
				eng.AtGlobal(at, func() { net.Revive(target) })
			}
		default: // burst of sends from one source at one instant
			src := Addr(rng.Intn(size))
			k := rng.Intn(4) + 1
			dsts := make([]Addr, k)
			for i := range dsts {
				dsts[i] = Addr(rng.Intn(size))
			}
			tag := op
			net.EngineFor(src).At(at, func() {
				for i, d := range dsts {
					net.Send(src, d, fmt.Sprintf("m%d.%d", tag, i))
				}
			})
		}
	}
	eng.Run()
	res.counters = net.AllCounters()
	return res
}

// TestShardedDeliveryEquivalence replays identical randomized traces — send
// bursts, 20% base loss, node pauses and true crashes with restarts —
// through the one-shard engine and the sharded engine at
// K ∈ {2, 4, 8}. Every node's delivery sequence (order, timestamps, senders)
// and every traffic counter must be identical at every shard count.
func TestShardedDeliveryEquivalence(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		ref := runShardedTrace(seed, 0)
		for _, k := range []int{2, 4, 8} {
			got := runShardedTrace(seed, k)
			for node := range ref.seen {
				r, g := ref.seen[node], got.seen[node]
				if len(r) != len(g) {
					t.Fatalf("seed %d shards %d node %d: serial delivered %d msgs, sharded %d",
						seed, k, node, len(r), len(g))
				}
				for i := range r {
					if r[i] != g[i] {
						t.Fatalf("seed %d shards %d node %d entry %d: serial %q, sharded %q",
							seed, k, node, i, r[i], g[i])
					}
				}
			}
			for node := range ref.counters {
				if ref.counters[node] != got.counters[node] {
					t.Fatalf("seed %d shards %d node %d: serial counters %+v, sharded %+v",
						seed, k, node, ref.counters[node], got.counters[node])
				}
			}
		}
	}
}
