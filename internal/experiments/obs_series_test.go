package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vbundle/internal/obs"
)

// TestSeriesShardInvariance is the determinism acceptance gate for the
// virtual-time sampler: the sampled series — counters and histogram-derived
// percentiles alike — must serialize byte-identically between the serial
// engine and the sharded engine at 2, 4 and 8 shards. Boundary sampling
// (every row reflects exactly the events with at < kΔ) plus order-invariant
// histogram merging is what makes this hold; this test is what keeps it so.
func TestSeriesShardInvariance(t *testing.T) {
	renderCSV := func(shards int) []byte {
		cfg := obs.Config{Stream: true, SampleEvery: 2 * time.Minute}
		out, err := RunRebalance(tracedRebalanceParams(shards, cfg))
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		ser := out.Trace.Series()
		if ser.Len() == 0 {
			t.Fatalf("shards %d: empty series; the invariance check would be vacuous", shards)
		}
		var buf bytes.Buffer
		if err := ser.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := renderCSV(0)
	// The series must include histogram-derived percentile columns, not just
	// counters — those are the shard-sensitive part.
	header, _, _ := strings.Cut(string(ref), "\n")
	if !strings.Contains(header, "/p99") {
		t.Fatalf("series has no percentile columns, header: %s", header)
	}
	for _, k := range []int{2, 4, 8} {
		if got := renderCSV(k); !bytes.Equal(ref, got) {
			t.Errorf("shards %d: series CSV differs from the serial reference:\nserial:\n%s\nshards %d:\n%s",
				k, ref, k, got)
		}
	}
}
