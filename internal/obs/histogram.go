package obs

import (
	"math/bits"
	"time"
)

// histBuckets is the bucket count of a log-bucketed histogram: one bucket
// per power of two of a non-negative int64 value. Bucket 0 holds values
// ≤ 0; bucket b (1 ≤ b ≤ 63) holds [2^(b-1), 2^b - 1]. bits.Len64 of a
// positive int64 is at most 63, so the array never indexes out of range.
const histBuckets = 64

// Histogram is a log-bucketed distribution: power-of-two buckets indexed by
// bit length, a zero-allocation record path, and exact count/min/max so
// quantiles can interpolate inside a bucket and clamp to observed extremes.
//
// Like Source, a nil *Histogram is the disabled recorder: Record returns
// after a single branch (the ≤2 ns / 0 allocs contract is gated by
// TestDisabledHistogramNoAlloc and TestDisabledHistogramSpeed). A
// non-nil zero value is ready to use.
//
// Ownership follows the engine's single-owner discipline: one component
// (usually one node) records into a histogram, so there is no locking.
// Components on different shards must each own their own histogram and
// register them under one name — Registry merges same-name histograms at
// snapshot time, and bucket addition is order-independent, which is what
// keeps the derived percentiles bit-identical at any shard count.
type Histogram struct {
	counts   [histBuckets]int64
	n        int64
	min, max int64
	// hi is the highest occupied bucket index, so merges and quantile
	// scans touch only live buckets. The registry merges every node's
	// histogram at each sample boundary (hundreds of sources × dozens of
	// samples), and real distributions occupy a handful of adjacent
	// buckets — bounding the loop is what keeps the sampler cheap
	// (the serve-512-sampler row of cmd/vb's gates table prints its wall
	// time).
	hi int
}

// Record adds one sample. Negative samples land in bucket 0 alongside zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.counts[b]++
	if b > h.hi {
		h.hi = b
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// RecordDuration records a duration sample in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.max
}

// bucketBounds returns the value range a bucket covers.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	return 1 << (b - 1), 1<<b - 1
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank, linearly
// interpolated inside the bucket holding that rank and clamped to the exact
// observed [min, max]. All arithmetic is integral, so equal inputs yield
// equal outputs on every platform — the property the series byte-diff gates
// rely on.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.9999999999)
	if rank <= 1 {
		return h.min
	}
	if rank >= h.n {
		return h.max
	}
	var cum int64
	for b := 0; b <= h.hi; b++ {
		c := h.counts[b]
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		lo, hi := bucketBounds(b)
		pos := rank - cum // 1..c
		v := lo + (hi-lo)*pos/c
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Merge adds o's samples into h. Addition is commutative and associative,
// so merging per-node histograms in any order yields identical buckets.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.n == 0 {
		return
	}
	for b := 0; b <= o.hi; b++ {
		h.counts[b] += o.counts[b]
	}
	if o.hi > h.hi {
		h.hi = o.hi
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Reset clears the histogram for reuse as a merge scratch.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	*h = Histogram{}
}
