package experiments

import (
	"fmt"
	"io"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/core"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/scribe"
	"vbundle/internal/sim"
)

// AggLatencyParams configures the Fig. 14 experiment: leaf-to-root
// aggregation latency as the ring grows 16 → 1024 servers.
type AggLatencyParams struct {
	// Sizes are the ring sizes to sweep; defaults to the paper's powers of
	// two 16…1024.
	Sizes []int
	// Seed drives randomness.
	Seed int64
	// Parallelism caps the worker goroutines running the Sizes sweep
	// (0 = GOMAXPROCS, 1 = sequential). Every sweep point builds its own
	// engine and ring, so results are identical at any setting.
	Parallelism int
	// RunConfig applies to every sweep point, but only the largest records
	// and is audited.
	RunConfig
}

func (p AggLatencyParams) withDefaults() AggLatencyParams {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{16, 32, 64, 128, 256, 512, 1024}
	}
	return p
}

// aggSendInterval is the subscriber send period the paper's upper curve adds
// to the raw propagation latency (their figure shows a 30 s offset);
// aggLANHop is the per-switch-level latency, which the paper observes at
// ≈10 ms.
const (
	aggSendInterval = 30 * time.Second
	aggLANHop       = 10 * time.Millisecond
)

// AggLatencyPoint is one ring size's measurement.
type AggLatencyPoint struct {
	Servers int
	// RawMean is the measured leaf-to-root propagation latency.
	RawMean time.Duration
	// RawMax is the slowest observed propagation.
	RawMax time.Duration
	// WithInterval adds one update interval (the paper's red curve).
	WithInterval time.Duration
	// TreeHeight is the maximum depth of the aggregation tree.
	TreeHeight int
	// ShardWork is the per-shard work accounting for the point's run (one
	// entry on the serial engine). Windows and self-caps are
	// the coordination costs the sharded engine pays for bit-identical
	// virtual time; benchmarks surface them so a shard-count change that
	// trades event parallelism for barrier churn is visible in the output.
	ShardWork []sim.ShardStats
}

// AggLatencyOutcome is the Fig. 14 sweep.
type AggLatencyOutcome struct {
	Params AggLatencyParams
	Points []AggLatencyPoint
	// Artifacts are the largest sweep point's.
	Artifacts
}

// RunAggLatency executes the Fig. 14 sweep. Sweep points are independent
// trials (each builds its own engine and ring), so they run concurrently
// under internal/parallel while the result stays bit-identical to the
// sequential loop.
func RunAggLatency(p AggLatencyParams) (*AggLatencyOutcome, error) {
	p = p.withDefaults()
	points, art, err := sweepSizes(p.Sizes, p.Parallelism, p.RunConfig,
		func(n int, c RunConfig) (AggLatencyPoint, Artifacts, error) { return aggLatencyPoint(p.Seed, n, c) })
	if err != nil {
		return nil, err
	}
	return &AggLatencyOutcome{Params: p, Points: points, Artifacts: art}, nil
}

// aggLatencyPoint measures one ring size on a private overlay.
func aggLatencyPoint(seed int64, n int, c RunConfig) (AggLatencyPoint, Artifacts, error) {
	const topic = "BW_Demand"
	spec := ScaledSpec(n)
	spec.LANHop = aggLANHop
	art := Artifacts{Trace: c.Obs.New()}
	ov, err := core.NewOverlay(core.Options{Topology: spec, Seed: seed, Shards: c.Shards, Trace: art.Trace})
	if err != nil {
		return AggLatencyPoint{}, art, err
	}
	engine, managers := ov.Engine, ov.Aggs
	// An overlay has no cluster or rebalancer, so no check applies: the
	// auditor only counts its sweeps.
	art.Audit = audit.Attach(c.Audit, audit.Targets{
		Engine: engine,
		Trace:  art.Trace,
	})
	for _, m := range managers {
		m.Subscribe(topic, nil)
	}
	engine.Run() // build the tree
	// Every subscriber sends one update; measure propagation to root.
	for _, m := range managers {
		m.SetLocal(topic, 1)
	}
	engine.Run()
	var raw []time.Duration
	for _, m := range managers {
		raw = append(raw, m.RootLatencies()...)
	}
	pt := AggLatencyPoint{Servers: n}
	var sum time.Duration
	for _, d := range raw {
		sum += d
		if d > pt.RawMax {
			pt.RawMax = d
		}
	}
	if len(raw) > 0 {
		pt.RawMean = sum / time.Duration(len(raw))
	}
	pt.WithInterval = pt.RawMean + aggSendInterval
	pt.TreeHeight = treeHeight(ov.Scribes, scribe.GroupKey(topic))
	pt.ShardWork = engine.ShardWork()
	return pt, art, nil
}

// treeHeight computes the depth of the Scribe tree rooted at the topic's
// rendezvous node by breadth-first walk over the children edges. Scribes
// sit at dense network addresses and child handles carry the address, so
// the walk runs over flat address-indexed slices; the id-keyed maps this
// replaces dominated the sweep's allocation profile at 100k+ servers.
func treeHeight(scribes []*scribe.Scribe, group ids.Id) int {
	byAddr := make([]*scribe.Scribe, len(scribes))
	var root *scribe.Scribe
	for _, s := range scribes {
		if a := int(s.Node().Addr()); a >= 0 && a < len(byAddr) {
			byAddr[a] = s
		}
		if s.IsRoot(group) {
			root = s
		}
	}
	if root == nil {
		return 0
	}
	type item struct {
		addr  int
		depth int
	}
	queue := make([]item, 0, 64)
	queue = append(queue, item{addr: int(root.Node().Addr())})
	visited := make([]bool, len(byAddr))
	visited[int(root.Node().Addr())] = true
	max, curDepth := 0, 0
	visit := func(child pastry.NodeHandle) {
		a := int(child.Addr)
		if a < 0 || a >= len(byAddr) || visited[a] {
			return
		}
		visited[a] = true
		queue = append(queue, item{addr: a, depth: curDepth + 1})
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if cur.depth > max {
			max = cur.depth
		}
		cs := byAddr[cur.addr]
		if cs == nil {
			continue
		}
		curDepth = cur.depth
		cs.ForEachChild(group, visit)
	}
	return max
}

// AggLatencySlope estimates the added latency per doubling of the server
// count — the paper's "increases linearly as servers increase
// exponentially" observation.
func (o *AggLatencyOutcome) AggLatencySlope() time.Duration {
	if len(o.Points) < 2 {
		return 0
	}
	first, last := o.Points[0], o.Points[len(o.Points)-1]
	doublings := 0
	for n := first.Servers; n < last.Servers; n *= 2 {
		doublings++
	}
	if doublings == 0 {
		return 0
	}
	return (last.RawMean - first.RawMean) / time.Duration(doublings)
}

// Report renders the Fig. 14 table.
func (o *AggLatencyOutcome) Report(w io.Writer) {
	writeHeader(w, "Fig 14", "leaf-to-root aggregation latency vs number of servers")
	fmt.Fprintf(w, "%-8s %-12s %-12s %-14s %s\n", "servers", "raw mean", "raw max", "with interval", "tree height")
	for _, pt := range o.Points {
		fmt.Fprintf(w, "%-8d %-12s %-12s %-14s %d\n",
			pt.Servers, ms(pt.RawMean), ms(pt.RawMax), ms(pt.WithInterval), pt.TreeHeight)
	}
	fmt.Fprintf(w, "latency added per server-count doubling: %s (paper: ≈linear, ~10ms per level)\n", ms(o.AggLatencySlope()))
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond)) }
