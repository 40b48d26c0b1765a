package experiments

import (
	"reflect"
	"testing"
	"time"

	"vbundle/internal/topology"
)

// shardCounts is the equivalence matrix: the one-shard engine is the
// reference (K = 1 is that engine itself), every K ≥ 2 must reproduce it
// bit-identically.
var shardCounts = []int{2, 4, 8}

// stripShardWork clears the per-engine coordination accounting from an
// aggregation-latency outcome before equivalence comparison. ShardWork is
// scheduler bookkeeping (an entry a shard, window count, self-caps), not
// virtual-time output, so it must not participate in the
// bit-identical-metrics check.
func stripShardWork(out *AggLatencyOutcome) {
	if out == nil {
		return
	}
	for i := range out.Points {
		out.Points[i].ShardWork = nil
	}
}

// TestShardedEquivalence replays the paper's experiments on the sharded
// engine at K ∈ {2, 4, 8} and requires every virtual-time metric — time
// series, snapshots, counters, latencies — to equal the serial reference
// exactly (reflect.DeepEqual over the whole outcome). Covers Fig. 9
// (rebalancing), the fault-injection variant (faults on), and Fig. 14/15
// (aggregation latency, message overhead).
func TestShardedEquivalence(t *testing.T) {
	t.Run("Fig14AggLatency", func(t *testing.T) {
		params := func(shards int) AggLatencyParams {
			return AggLatencyParams{Sizes: []int{64, 128}, Seed: 7, Parallelism: 1, Shards: shards}
		}
		ref, err := RunAggLatency(params(0))
		if err != nil {
			t.Fatal(err)
		}
		stripShardWork(ref)
		for _, k := range shardCounts {
			got, err := RunAggLatency(params(k))
			if err != nil {
				t.Fatalf("shards %d: %v", k, err)
			}
			got.Params.Shards = 0
			stripShardWork(got)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards %d: outcome diverged from serial reference\nserial: %+v\nsharded: %+v", k, ref, got)
			}
		}
	})

	t.Run("Fig14AggLatencyLarge", func(t *testing.T) {
		// The dynamic drain windows reshape per-shard execution most at
		// larger rings (more in-window events per shard, more self-caps), so
		// the matrix is replayed at sizes where windows actually stretch.
		if testing.Short() {
			t.Skip("large-ring equivalence matrix skipped with -short")
		}
		params := func(shards int) AggLatencyParams {
			return AggLatencyParams{Sizes: []int{512, 2048}, Seed: 11, Parallelism: 1, Shards: shards}
		}
		ref, err := RunAggLatency(params(0))
		if err != nil {
			t.Fatal(err)
		}
		stripShardWork(ref)
		for _, k := range shardCounts {
			got, err := RunAggLatency(params(k))
			if err != nil {
				t.Fatalf("shards %d: %v", k, err)
			}
			got.Params.Shards = 0
			stripShardWork(got)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards %d: outcome diverged from serial reference\nserial: %+v\nsharded: %+v", k, ref, got)
			}
		}
	})

	t.Run("Fig15MessageOverhead", func(t *testing.T) {
		params := func(shards int) MessageOverheadParams {
			return MessageOverheadParams{Sizes: []int{64}, Round: 30 * time.Second,
				VMsPerServer: 3, Seed: 7, Parallelism: 1, Shards: shards}
		}
		ref, err := RunMessageOverhead(params(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range shardCounts {
			got, err := RunMessageOverhead(params(k))
			if err != nil {
				t.Fatalf("shards %d: %v", k, err)
			}
			got.Params.Shards = 0
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards %d: outcome diverged from serial reference\nserial: %+v\nsharded: %+v", k, ref, got)
			}
		}
	})

	t.Run("Fig9Rebalance", func(t *testing.T) {
		params := func(shards int) RebalanceParams {
			return RebalanceParams{
				Spec:           ScaledSpec(64),
				VMsPerServer:   4,
				UpdateInterval: 2 * time.Minute, RebalanceInterval: 6 * time.Minute,
				Duration: 20 * time.Minute, SampleEvery: 2 * time.Minute,
				Seed: 7, Shards: shards,
			}
		}
		ref, err := RunRebalance(params(0))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Migrations == 0 {
			t.Fatal("reference run triggered no migrations; the equivalence check would be vacuous")
		}
		for _, k := range shardCounts {
			got, err := RunRebalance(params(k))
			if err != nil {
				t.Fatalf("shards %d: %v", k, err)
			}
			got.Params.Shards = 0
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards %d: outcome diverged from serial reference\nserial: %+v\nsharded: %+v", k, ref, got)
			}
		}
	})

	t.Run("ResilienceFaultsOn", func(t *testing.T) {
		params := func(shards int) FaultParams {
			return FaultParams{
				RebalanceParams: RebalanceParams{
					Spec:           ScaledSpec(80),
					VMsPerServer:   4,
					UpdateInterval: 2 * time.Minute, RebalanceInterval: 6 * time.Minute,
					Duration: 24 * time.Minute, SampleEvery: 2 * time.Minute,
					Seed: 7, Shards: shards,
				},
				LeaseDuration: 5 * time.Minute, Heartbeat: time.Minute,
				DropRate: 0.05, Victims: 2,
			}
		}
		ref, err := RunFaults(params(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Victims) == 0 {
			t.Fatal("reference run killed no servers; the fault path would be untested")
		}
		for _, k := range shardCounts {
			got, err := RunFaults(params(k))
			if err != nil {
				t.Fatalf("shards %d: %v", k, err)
			}
			got.Params.Shards = 0
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards %d: outcome diverged from serial reference\nserial: %+v\nsharded: %+v", k, ref, got)
			}
		}
	})
}

// ScaledSpec sanity for the test sizes used above: the helper must return a
// valid spec at small server counts (guards against the equivalence tests
// silently shrinking to a trivial topology).
func TestScaledSpecSmall(t *testing.T) {
	for _, n := range []int{64, 80, 128} {
		spec := ScaledSpec(n)
		topo, err := topology.New(spec)
		if err != nil {
			t.Fatalf("ScaledSpec(%d): %v", n, err)
		}
		if topo.Servers() < n {
			t.Fatalf("ScaledSpec(%d) yields %d servers", n, topo.Servers())
		}
	}
}
