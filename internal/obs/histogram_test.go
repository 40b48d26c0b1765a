package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.min
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 62} {
		h.Record(v)
	}
	if h.Count() != 11 {
		t.Fatalf("Count = %d, want 11", h.Count())
	}
	if h.Min() != -5 || h.Max() != 1<<62 {
		t.Errorf("Min/Max = %d/%d, want -5/%d", h.Min(), h.Max(), int64(1)<<62)
	}
	// Non-positive values land in bucket 0; powers of two start new buckets.
	if h.counts[0] != 2 {
		t.Errorf("bucket 0 holds %d, want 2 (the -5 and the 0)", h.counts[0])
	}
	if h.counts[1] != 1 { // [1,1]
		t.Errorf("bucket 1 holds %d, want 1", h.counts[1])
	}
	if h.counts[2] != 2 { // [2,3]
		t.Errorf("bucket 2 holds %d, want 2", h.counts[2])
	}
	if h.counts[3] != 2 { // [4,7]
		t.Errorf("bucket 3 holds %d, want 2", h.counts[3])
	}
	if h.counts[10] != 1 { // [512,1023]
		t.Errorf("bucket 10 holds %d, want 1", h.counts[10])
	}
	if h.counts[11] != 1 { // [1024,2047]
		t.Errorf("bucket 11 holds %d, want 1", h.counts[11])
	}
}

// TestHistogramQuantile cross-checks the bucket quantiles against the exact
// nearest-rank answer on a random sample: the log-bucketed estimate must
// land within one bucket width of the truth, and exactly on it at the
// extremes.
func TestHistogramQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	values := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		values = append(values, v)
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(values)) + 0.9999999999)
		if rank > len(values) {
			rank = len(values)
		}
		exact := values[rank-1]
		got := h.Quantile(q)
		// The estimate must stay inside the exact value's power-of-two
		// bucket: within a factor of two.
		if got < exact/2 || got > exact*2 {
			t.Errorf("Quantile(%g) = %d, exact %d — outside one bucket width", q, got, exact)
		}
	}
	if got := h.Quantile(0); got != values[0] {
		t.Errorf("Quantile(0) = %d, want min %d", got, values[0])
	}
	if got := h.Quantile(1); got != values[len(values)-1] {
		t.Errorf("Quantile(1) = %d, want max %d", got, values[len(values)-1])
	}
}

func TestHistogramQuantileSmall(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	h.Record(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-value Quantile(%g) = %d, want 7", q, got)
		}
	}
}

// TestHistogramMergeOrderInvariant is what makes histogram-derived series
// keys shard-invariant: merging per-shard histograms in any order yields
// identical quantiles.
func TestHistogramMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	parts := make([]Histogram, 4)
	var whole Histogram
	for i := 0; i < 4000; i++ {
		v := int64(rng.Intn(1 << 20))
		parts[i%4].Record(v)
		whole.Record(v)
	}
	var fwd, rev Histogram
	for i := range parts {
		fwd.Merge(&parts[i])
		rev.Merge(&parts[len(parts)-1-i])
	}
	for _, m := range []*Histogram{&fwd, &rev} {
		if m.Count() != whole.Count() || m.Min() != whole.Min() || m.Max() != whole.Max() {
			t.Fatalf("merged summary diverges: %+v vs %+v", m, whole)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if m.Quantile(q) != whole.Quantile(q) {
				t.Errorf("merged Quantile(%g) = %d, direct %d", q, m.Quantile(q), whole.Quantile(q))
			}
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.RecordDuration(time.Second)
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("nil histogram reads nonzero")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile/mean nonzero")
	}
	h.Merge(nil)
	h.Reset()
	var dst Histogram
	dst.Record(3)
	dst.Merge(h) // nil source leaves dst intact
	if dst.Count() != 1 {
		t.Errorf("merge of nil source changed dst: count %d", dst.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(-1)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("reset histogram not empty: %+v", h)
	}
	h.Record(4)
	if h.Min() != 4 || h.Max() != 4 {
		t.Errorf("post-reset min/max = %d/%d, want 4/4", h.Min(), h.Max())
	}
}

// TestDisabledHistogramNoAlloc pins the zero-allocation contract of the
// nil-receiver fast path every instrumentation site relies on.
func TestDisabledHistogramNoAlloc(t *testing.T) {
	var h *Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(42) }); n != 0 {
		t.Errorf("disabled Record allocates %.1f per op, want 0", n)
	}
	var live Histogram
	if n := testing.AllocsPerRun(1000, func() { live.Record(42) }); n != 0 {
		t.Errorf("enabled Record allocates %.1f per op, want 0", n)
	}
}

func BenchmarkHistogramRecordDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}
