package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// N returns the number of samples.
func (s *Stats) N() int { return s.n }

func TestStatsKnownValues(t *testing.T) {
	var s Stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Fatalf("Std = %g, want 2", s.Std())
	}
}

func TestStatsEmptyAndSingle(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty stats not zero")
	}
	s.Add(42)
	if s.Mean() != 42 || s.Std() != 0 || s.N() != 1 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestStatsMatchesNaiveComputation(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Stats
		var sum float64
		for _, r := range raw {
			v := float64(r)
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		want := math.Sqrt(ss / float64(len(raw)))
		return math.Abs(s.Std()-want) < 1e-6*(1+want) && math.Abs(s.Mean()-mean) < 1e-9*(1+math.Abs(mean))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 2, 3, 10} {
		c.Add(v)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %g", got)
	}
	if got := c.At(2); got != 0.6 {
		t.Errorf("At(2) = %g, want 0.6", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %g", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("q1 = %g", got)
	}
	pts := c.Points()
	if len(pts) != 4 { // distinct values 1,2,3,10
		t.Fatalf("points = %v", pts)
	}
	if pts[1].X != 2 || pts[1].Y != 0.6 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Points() != nil {
		t.Fatal("empty CDF not zero-valued")
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c CDF
	for i := 0; i < 500; i++ {
		c.Add(rng.NormFloat64())
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := c.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%g", p)
		}
		prev = q
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Second, 1)
	ts.Add(2*time.Second, 5)
	if ts.N() != 2 {
		t.Fatalf("N = %d", ts.N())
	}
	if last := ts.Points()[1]; last.V != 5 || last.T != 2*time.Second {
		t.Fatalf("last point = %+v", last)
	}
}

func TestScatter(t *testing.T) {
	var s Scatter
	s.Add(1, 2, "a")
	s.Add(3, 4, "b")
	s.Add(5, 6, "a")
	if len(s.Points()) != 3 {
		t.Fatal("points lost")
	}
	by := s.BySeries()
	if len(by["a"]) != 2 || len(by["b"]) != 1 {
		t.Fatalf("BySeries = %v", by)
	}
}

func TestOneShotHelpers(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if MeanOf(vals) != 2.5 {
		t.Fatalf("MeanOf = %g", MeanOf(vals))
	}
	if math.Abs(StdOf(vals)-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("StdOf = %g", StdOf(vals))
	}
}
