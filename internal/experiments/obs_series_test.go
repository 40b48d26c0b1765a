package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vbundle/internal/audit"
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

// TestSamplingAndAuditDoNotChangeMetrics is the zero-interference gate for
// the two new observers: every experiment metric must be bit-identical
// whether the virtual-time sampler and the invariant auditor are off, on
// individually, or on together. Both run at sampling boundaries between
// events, touch no rng, and schedule no engine events; this test is what
// keeps it that way.
func TestSamplingAndAuditDoNotChangeMetrics(t *testing.T) {
	render := func(cfg obs.Config, au audit.Config) ([]byte, *audit.Auditor) {
		p := tracedRebalanceParams(0, cfg)
		p.Audit = au
		out, err := RunRebalance(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out.WriteFig9(&buf)
		out.WriteFig10(&buf)
		out.WriteFig11(&buf)
		return buf.Bytes(), out.Audit
	}
	off, _ := render(obs.Config{}, audit.Config{})
	for _, tc := range []struct {
		name string
		cfg  obs.Config
		au   audit.Config
	}{
		{"sampling", obs.Config{Stream: true, SampleEvery: time.Minute}, audit.Config{}},
		{"audit", obs.Config{}, audit.Config{Every: 30 * time.Second}},
		{"both", obs.Config{Stream: true, SampleEvery: time.Minute}, audit.Config{Every: 30 * time.Second}},
	} {
		got, a := render(tc.cfg, tc.au)
		if !bytes.Equal(off, got) {
			t.Errorf("%s changed experiment metrics:\noff:\n%s\n%s:\n%s", tc.name, off, tc.name, got)
		}
		if tc.au.Every > 0 {
			if a.Sweeps() == 0 {
				t.Errorf("%s: auditor attached but never swept", tc.name)
			}
			if a.Violations() != 0 {
				var buf bytes.Buffer
				a.Report(&buf)
				t.Errorf("%s: clean rebalance run reported violations:\n%s", tc.name, buf.String())
			}
		}
	}
}
