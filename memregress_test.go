// Memory-regression tests: the scale ladder in EXPERIMENTS.md depends on
// per-server allocation cost staying flat as rings grow, and that property
// has silently regressed before (a reintroduced per-node map shows up as a
// few hundred bytes per server — invisible in any small-ring test, gigabytes
// at the 1048576 rung). These tests pin it numerically.
package vbundle

import (
	"runtime"
	"testing"

	"vbundle/internal/experiments"
)

// TestFig14BytesPerServerCeiling builds the full 32768-server Fig. 14 stack
// once and asserts the total bytes allocated per server stays under a fixed
// ceiling. The current cost is 3137 B/server (engine + topology + pastry's
// four-byte-a-peer ref arena and identifier directory + simnet's two-slot
// inbox slab + a 416-byte node, a 320-byte scribe and a 256-byte topic +
// the run's message traffic); the ceiling leaves 20% headroom for legitimate
// drift. If this fails after a change, run the three size-ceiling tests
// (TestNodeSizeCeiling, TestScribeSizeCeiling, TestTopicStateSizeCeiling)
// first: they name the struct that grew. Then
// compare `go test -bench 'Fig14Scale32768' -benchmem` against the previous
// commit and check the alloc-site top-10 recipe in DESIGN.md ("Profiling
// methodology") before raising it: at 1048576 servers every extra KB/server
// is another gigabyte of heap.
func TestFig14BytesPerServerCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("32768-server ring; run without -short")
	}
	const servers = 32768
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := experiments.RunAggLatency(experiments.AggLatencyParams{
		Sizes: []int{servers}, Seed: 1, Parallelism: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if out.Points[0].TreeHeight == 0 {
		t.Fatal("degenerate run: aggregation tree has height 0")
	}
	perServer := float64(after.TotalAlloc-before.TotalAlloc) / servers
	const ceilingBytes = 3770 // measured 3137 B/server + 20%
	if perServer > ceilingBytes {
		t.Fatalf("allocated %.0f B/server at %d servers, ceiling %d — a per-node cost crept back in (see DESIGN.md \"Profiling methodology\")",
			perServer, servers, ceilingBytes)
	}
	t.Logf("%.0f B/server (ceiling %d)", perServer, ceilingBytes)
}
