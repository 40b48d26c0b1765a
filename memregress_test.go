// Memory-regression tests: the scale ladder in EXPERIMENTS.md depends on
// per-server allocation cost staying flat as rings grow, and that property
// has silently regressed before (a reintroduced per-node map shows up as a
// few hundred bytes per server — invisible in any small-ring test, gigabytes
// at the 1048576 rung). These tests pin it numerically.
package vbundle

import (
	"fmt"
	"runtime"
	"testing"

	"vbundle/internal/experiments"
)

// TestFig14BytesPerServerCeiling builds the Fig. 14 stack at two sizes and
// holds the objects and bytes each allocates, construction and run together,
// under fixed ceilings. Both counts are deterministic where wall time on a
// shared box is not (bytes move in their last two digits).
//
// 2048 servers on the serial engine is the cheapest rung that still builds a
// real multi-rack ring: 2.38k objects and 5.04 MB (2460 B/server), object
// ceiling a third above. It catches a reintroduced per-node map, closure or
// object (2048 objects each), a table entry grown back from a 4-byte ref to
// a 24-byte handle, or an eight-slot inbox chunk.
//
// 32768 servers on four shards is 34.5k objects and 2622 B/server (engine +
// topology + pastry's four-byte-a-peer ref arena, sized to the rows the ring
// fills, and identifier directory + simnet's two-slot inbox slab + one
// []Node of 360-byte nodes + each shard's slabs of 264-byte scribes, managers,
// 232-byte topics and events + the run's message traffic), object ceiling a
// fifth above. Before the slabs it was 394.3k objects and 2827 B/server: one
// Scribe, Manager, topicState, parent-data closure and event a server. Before
// the message shells came out of slabs and joins became the group key it was
// 10.6k and 165.4k objects: an envelope, a join, a direct envelope and a push
// shell a server in flight together in the first round.
//
// The byte ceilings are the ones set when the arena reserved a routing row
// no node filled, lowered by that row (64 B/server): 6.78 MB and
// 3706 B/server.
//
// If this fails after a change, run the three size-ceiling tests
// (TestNodeSizeCeiling, TestScribeSizeCeiling, TestTopicStateSizeCeiling)
// first: they name the struct that grew. Then compare `go test -bench
// 'Fig14Scale32768' -benchmem` against the previous commit and check the
// alloc-site top-10 recipe in DESIGN.md ("Profiling methodology") before
// raising a ceiling: at 1048576 servers every extra KB/server is another
// gigabyte of heap.
func TestFig14BytesPerServerCeiling(t *testing.T) {
	for _, c := range []struct {
		servers, shards      int
		maxMallocs, maxBytes uint64
	}{
		{servers: 2048, shards: 0, maxMallocs: 3180, maxBytes: 6910000 - 64*2048},
		{servers: 32768, shards: 4, maxMallocs: 41400, maxBytes: (3770 - 64) * 32768},
	} {
		t.Run(fmt.Sprintf("servers=%d", c.servers), func(t *testing.T) {
			if c.servers > 2048 && testing.Short() {
				t.Skip("32768-server ring; run without -short")
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := experiments.RunAggLatency(experiments.AggLatencyParams{
				Sizes: []int{c.servers}, Seed: 1, Parallelism: 1, Shards: c.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if out.Points[0].TreeHeight == 0 {
				t.Fatal("degenerate run: aggregation tree has height 0")
			}
			mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			t.Logf("%d objects (ceiling %d), %d B (ceiling %d), %d B/server",
				mallocs, c.maxMallocs, bytes, c.maxBytes, bytes/uint64(c.servers))
			if mallocs > c.maxMallocs || bytes > c.maxBytes {
				t.Errorf("a per-node cost crept back in (see DESIGN.md \"Profiling methodology\")")
			}
		})
	}
}
