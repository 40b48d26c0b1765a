package experiments

import (
	"bytes"
	"testing"
	"time"

	"vbundle/internal/obs"
)

// tracedRebalanceParams is a small Fig. 9 run with enough activity that the
// trace contains the full anycast → lease → migration chain.
func tracedRebalanceParams(shards int, cfg obs.Config) RebalanceParams {
	return RebalanceParams{
		Spec:           ScaledSpec(64),
		VMsPerServer:   4,
		UpdateInterval: 2 * time.Minute, RebalanceInterval: 6 * time.Minute,
		Duration: 20 * time.Minute, SampleEvery: 2 * time.Minute,
		Seed: 7, Shards: shards,
		Obs: cfg,
	}
}

// TestTraceShardInvariance is the determinism acceptance gate for the
// recorder itself: the serialized event stream must be byte-identical
// between the serial engine and the sharded engine at any shard count.
// Per-source sequence numbers plus the canonical (TS, Src, Seq) sort erase
// the scheduling freedom; this test is what keeps it that way.
func TestTraceShardInvariance(t *testing.T) {
	serialize := func(shards int) []byte {
		out, err := RunRebalance(tracedRebalanceParams(shards, obs.Config{Stream: true}))
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if out.Migrations == 0 {
			t.Fatalf("shards %d: no migrations; the invariance check would be vacuous", shards)
		}
		var buf bytes.Buffer
		if err := out.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := serialize(0)
	for _, k := range []int{2, 4} {
		if got := serialize(k); !bytes.Equal(ref, got) {
			t.Errorf("shards %d: serialized trace differs from the serial reference (%d vs %d bytes)", k, len(got), len(ref))
		}
	}
	// And the stream must be reproducible run-to-run.
	if got := serialize(0); !bytes.Equal(ref, got) {
		t.Error("two serial runs with identical params produced different traces")
	}
}

// TestTracingDoesNotChangeMetrics is the zero-interference gate: every
// experiment metric must be bit-identical whether recording is off, ring-
// bounded, or streaming. Recording touches no rng and schedules no engine
// events; this test is what keeps it that way.
func TestTracingDoesNotChangeMetrics(t *testing.T) {
	render := func(cfg obs.Config) []byte {
		out, err := RunRebalance(tracedRebalanceParams(0, cfg))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out.WriteFig9(&buf)
		out.WriteFig10(&buf)
		out.WriteFig11(&buf)
		return buf.Bytes()
	}
	off := render(obs.Config{})
	for _, tc := range []struct {
		name string
		cfg  obs.Config
	}{
		{"ring", obs.Config{Ring: 256}},
		{"stream", obs.Config{Stream: true}},
	} {
		if got := render(tc.cfg); !bytes.Equal(off, got) {
			t.Errorf("%s recording changed experiment metrics:\noff:\n%s\n%s:\n%s", tc.name, off, tc.name, got)
		}
	}
}

// TestTraceCausalChain asserts that a real experiment's trace links a
// migration back through the lease to the anycast that discovered the
// receiver — the property vb trace explain relies on.
func TestTraceCausalChain(t *testing.T) {
	out, err := RunRebalance(tracedRebalanceParams(0, obs.Config{Stream: true}))
	if err != nil {
		t.Fatal(err)
	}
	events := out.Trace.Events()
	ix := obs.NewIndex(events)

	spans := map[obs.Ref]obs.Event{}
	for _, ev := range events {
		if ev.Phase == obs.PhaseBegin {
			spans[ev.Span] = ev
		}
	}
	chains := 0
	for _, ev := range events {
		if ev.Kind != obs.KindMigration || ev.Phase != obs.PhaseBegin {
			continue
		}
		any, ok := spans[ev.Parent]
		if !ok || any.Kind != obs.KindAnycast {
			continue
		}
		// A lease for the same VM granted during that anycast's walk.
		for _, lease := range events {
			if lease.Kind == obs.KindLease && lease.Phase == obs.PhaseBegin &&
				lease.Parent == ev.Parent && lease.A == ev.A {
				chains++
				break
			}
		}
	}
	if chains == 0 {
		t.Fatalf("no full anycast→lease→migration chain among %d events", len(events))
	}

	// The explainer must reconstruct them without panicking.
	var buf bytes.Buffer
	if n := ix.ExplainMigrations(&buf, -1, 3); n == 0 {
		t.Error("ExplainMigrations found no migrations in a run that had them")
	}
	if !bytes.Contains(buf.Bytes(), []byte("caused by anycast")) {
		t.Errorf("explanation lacks the causal link:\n%s", buf.String())
	}
}
