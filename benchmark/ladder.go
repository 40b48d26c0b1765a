package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/experiments"
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
)

const ladderTopic = "BW_Demand"

// ladderStack is the hand-built overlay of the Fig 14 ladder: a ring with a
// scribe and an aggregation manager per node, and no cluster, placement or
// rebalancer above them.
type ladderStack struct {
	engine   *sim.Engine
	ring     *pastry.Ring
	scribes  []*scribe.Scribe
	managers []*aggregation.Manager
}

func newEngine(shards int) *sim.Engine {
	if shards > 0 {
		return sim.NewShardedEngine(engineSeed, shards)
	}
	return sim.NewEngine(engineSeed)
}

// buildLadder constructs the stack layer by layer, one span per layer.
// Scribes and managers are built in two passes (not interleaved per node as
// core.New does) so each layer's constructor cost is one span.
func buildLadder(e *env, servers int, tr *obs.Trace) (*ladderStack, error) {
	spec := experiments.ScaledSpec(servers)
	spec.LANHop = 10 * time.Millisecond
	var topo *topology.Topology
	var err error
	e.rec.time("topology.build", func() { topo, err = topology.New(spec) })
	if err != nil {
		return nil, err
	}
	st := &ladderStack{engine: newEngine(e.shards)}
	var netOpts []simnet.Option
	if tr != nil {
		netOpts = append(netOpts, simnet.WithTrace(tr))
	}
	e.rec.time("pastry.ring_new", func() {
		st.ring = pastry.NewRing(st.engine, topo, pastry.Config{}, pastry.HierarchyAssigner, netOpts...)
	})
	e.rec.time("pastry.build_static", st.ring.BuildStatic)
	nodes := st.ring.Nodes()
	st.scribes = make([]*scribe.Scribe, len(nodes))
	st.managers = make([]*aggregation.Manager, len(nodes))
	e.rec.time("scribe.new", func() {
		for i, n := range nodes {
			st.scribes[i] = scribe.New(n)
		}
	})
	e.rec.time("aggregation.new", func() {
		for i, sc := range st.scribes {
			st.managers[i] = aggregation.New(sc, aggregation.Config{UpdateInterval: 5 * time.Minute})
		}
	})
	return st, nil
}

// runLadder is the `ladder` workload: build the overlay, subscribe every
// node to one topic, let the tree form, push one value per leaf and let one
// leaf→root round complete.
func runLadder(e *env) (*outcome, error) {
	n := e.size(131072)
	o := newOutcome()
	tr := e.obs.New()
	o.trace = tr

	// The only seeded input: each leaf's local value.
	rng := rand.New(rand.NewSource(e.seed))
	values := make([]float64, 0, n)

	var st *ladderStack
	var err error
	e.phase(o, 0, func() { st, err = buildLadder(e, n, tr) })
	if err != nil {
		return nil, err
	}
	for range st.managers {
		values = append(values, 10+rng.Float64()*990)
	}
	o.keep = st
	if tr != nil {
		sim.AttachObs(st.engine, tr)
	}

	e.phase(o, 1, func() {
		e.rec.time("aggregation.subscribe", func() {
			for _, m := range st.managers {
				m.Subscribe(ladderTopic, nil)
			}
		})
		e.rec.time("sim.run", st.engine.Run) // tree build
		e.rec.time("aggregation.set_local", func() {
			for i, m := range st.managers {
				m.SetLocal(ladderTopic, values[i])
			}
		})
		e.rec.time("sim.run", st.engine.Run) // one leaf→root round
	})

	var raw []time.Duration
	for _, m := range st.managers {
		raw = append(raw, m.RootLatencies()...)
	}
	var sum time.Duration
	for _, d := range raw {
		sum += d
	}
	slices.Sort(raw)
	servers := len(st.managers)
	msgs, _ := netTotals(st.ring.Network())
	height := treeHeight(st.scribes, scribe.GroupKey(ladderTopic))
	if tr != nil {
		collectCounts(o, tr, st.ring.Network())
		o.counts["aggregation.tree_height"] = float64(height)
	}
	if e.shards > 0 {
		shardInfo(o, st.engine)
	}

	// Correctness: what the root folded must be exactly the leaves' values.
	// Publishing makes the root's reduction readable; the dissemination it
	// queues is never run (the counters above are already read).
	var got aggregation.Global
	for _, m := range st.managers {
		if m.Scribe().IsRoot(scribe.GroupKey(ladderTopic)) {
			m.PublishNow(ladderTopic)
			got, _ = m.Global(ladderTopic)
		}
	}
	want := aggregation.Aggregate{}
	for _, v := range values {
		want = want.Fold(aggregation.Sample(v))
	}
	if got.Count > servers || (got.Count == servers && !sameAggregate(got.Aggregate, want)) {
		return nil, fmt.Errorf("ladder: root folded %+v, leaves hold %+v", got.Aggregate, want)
	}

	o.ops = servers
	o.failedOps = servers - got.Count
	o.model["virt_p50_ms"] = quantileDur(raw, 0.50)
	o.model["virt_p99_ms"] = quantileDur(raw, 0.99)
	o.model["msgs_per_op"] = float64(msgs) / float64(servers)
	o.model["failed_frac"] = float64(o.failedOps) / float64(servers)
	o.info["virt_samples"] = float64(len(raw))
	if len(raw) > 0 {
		o.info["virt_mean_ms"] = float64(sum/time.Duration(len(raw))) / float64(time.Millisecond)
	}
	o.info["tree_height"] = float64(height)
	return o, nil
}

// sameAggregate compares two reductions of the same samples folded in
// different orders: counts and extremes exactly, the sum up to rounding.
func sameAggregate(a, b aggregation.Aggregate) bool {
	return a.Count == b.Count && a.Min == b.Min && a.Max == b.Max &&
		math.Abs(a.Sum-b.Sum) <= 1e-9*math.Abs(b.Sum)
}

// netTotals sums the per-node traffic counters.
func netTotals(net *simnet.Network) (msgs, bytes int) {
	for _, c := range net.AllCounters() {
		msgs += c.MsgsSent
		bytes += c.BytesSent
	}
	return msgs, bytes
}

// treeHeight is the depth of the Scribe tree of group, walked breadth-first
// from its root over the public children accessor.
func treeHeight(scribes []*scribe.Scribe, group ids.Id) int {
	byAddr := make([]*scribe.Scribe, len(scribes))
	root := -1
	for _, s := range scribes {
		a := int(s.Node().Addr())
		if a >= 0 && a < len(byAddr) {
			byAddr[a] = s
		}
		if s.IsRoot(group) {
			root = a
		}
	}
	if root < 0 {
		return 0
	}
	depth := make([]int32, len(byAddr))
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	queue := []int{root}
	height := 0
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		s := byAddr[cur]
		if s == nil {
			continue
		}
		s.ForEachChild(group, func(child pastry.NodeHandle) {
			a := int(child.Addr)
			if a < 0 || a >= len(depth) || depth[a] >= 0 {
				return
			}
			depth[a] = depth[cur] + 1
			if int(depth[a]) > height {
				height = int(depth[a])
			}
			queue = append(queue, a)
		})
	}
	return height
}

// shardInfo records the sharded engine's coordination work.
func shardInfo(o *outcome, engine *sim.Engine) {
	var events, windows, caps uint64
	for _, s := range engine.ShardWork() {
		events += s.Events
		if s.Windows > windows {
			windows = s.Windows
		}
		caps += s.Caps
	}
	o.info["shard_events"] = float64(events)
	o.info["shard_windows"] = float64(windows)
	o.info["shard_self_caps"] = float64(caps)
}
