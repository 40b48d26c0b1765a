// Package metrics provides the small statistics toolkit the v-Bundle
// experiments report with: running mean/stddev, empirical CDFs, time series
// and labelled scatter snapshots matching the paper's figures.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Stats accumulates running statistics using Welford's algorithm, which is
// numerically stable for long runs.
type Stats struct {
	n        int
	mean, m2 float64
}

// Add folds one sample into the statistics.
func (s *Stats) Add(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Mean returns the sample mean (zero when empty).
func (s *Stats) Mean() float64 { return s.mean }

// Variance returns the population variance (zero for fewer than 2 samples).
func (s *Stats) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Variance()) }

// StdOf is a convenience one-shot population standard deviation.
func StdOf(values []float64) float64 {
	var s Stats
	for _, v := range values {
		s.Add(v)
	}
	return s.Std()
}

// MeanOf is a convenience one-shot mean.
func MeanOf(values []float64) float64 {
	var s Stats
	for _, v := range values {
		s.Add(v)
	}
	return s.Mean()
}

// CDF is an empirical cumulative distribution over collected samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns the fraction of samples less than or equal to x.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Quantile returns the p-quantile (0 <= p <= 1) by nearest-rank.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	if p <= 0 {
		return c.samples[0]
	}
	if p >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(p*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.samples[rank]
}

// Points returns the (value, cumulative fraction) curve at each distinct
// sample, suitable for plotting.
func (c *CDF) Points() []Point {
	if len(c.samples) == 0 {
		return nil
	}
	c.ensureSorted()
	var pts []Point
	n := float64(len(c.samples))
	for i, v := range c.samples {
		if i+1 < len(c.samples) && c.samples[i+1] == v {
			continue // keep only the last occurrence of each value
		}
		pts = append(pts, Point{X: v, Y: float64(i+1) / n})
	}
	return pts
}

// Point is one (x, y) pair.
type Point struct{ X, Y float64 }

// TimeSeries records (virtual time, value) pairs.
type TimeSeries struct {
	points []TimePoint
}

// TimePoint is a timestamped sample.
type TimePoint struct {
	T time.Duration
	V float64
}

// Add appends a sample; timestamps should be non-decreasing.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.points = append(ts.points, TimePoint{T: t, V: v})
}

// Points returns the recorded samples.
func (ts *TimeSeries) Points() []TimePoint { return ts.points }

// N returns the number of samples.
func (ts *TimeSeries) N() int { return len(ts.points) }

// ScatterPoint is one dot of a labelled scatter plot (paper Figs. 7–9).
type ScatterPoint struct {
	X, Y   float64
	Series string
}

// Scatter collects labelled points.
type Scatter struct {
	points []ScatterPoint
}

// Add appends a point.
func (s *Scatter) Add(x, y float64, series string) {
	s.points = append(s.points, ScatterPoint{X: x, Y: y, Series: series})
}

// Points returns all points.
func (s *Scatter) Points() []ScatterPoint { return s.points }

// BySeries groups points by label.
func (s *Scatter) BySeries() map[string][]ScatterPoint {
	out := make(map[string][]ScatterPoint)
	for _, p := range s.points {
		out[p.Series] = append(out[p.Series], p)
	}
	return out
}
