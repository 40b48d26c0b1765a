package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Poisson is a homogeneous Poisson arrival process: exponential gaps with
// mean 1/PerSec. Poisson and FlashCrowd draw from the caller-owned rng, so a
// stream is deterministic for a given seed regardless of what else the
// simulation interleaves.
type Poisson struct {
	// PerSec is the mean arrival rate per second of virtual time.
	PerSec float64
}

// Next returns the gap from virtual time t to the next arrival.
func (p Poisson) Next(_ time.Duration, rng *rand.Rand) time.Duration {
	return expGap(p.PerSec, rng)
}

// FlashCrowd is a non-homogeneous Poisson process: the Base rate, multiplied
// by Multiplier inside the window [Start, Start+Length). Sampling uses
// Lewis–Shedler thinning against the peak rate, so the stream is exact for
// the time-varying intensity, not an approximation.
type FlashCrowd struct {
	// Base is the background arrival rate per second.
	Base float64
	// Multiplier scales the rate inside the flash window (≥ 1).
	Multiplier float64
	// Start and Length bound the flash window in virtual time.
	Start, Length time.Duration
}

// RateAt returns the instantaneous arrival rate at virtual time t.
func (f FlashCrowd) RateAt(t time.Duration) float64 {
	if t >= f.Start && t < f.Start+f.Length && f.Multiplier > 1 {
		return f.Base * f.Multiplier
	}
	return f.Base
}

// Next returns the gap from virtual time t to the next arrival, by
// thinning: draw candidate gaps at the peak rate and accept each with
// probability rate(t)/peak.
func (f FlashCrowd) Next(t time.Duration, rng *rand.Rand) time.Duration {
	peak := f.Base
	if f.Multiplier > 1 {
		peak = f.Base * f.Multiplier
	}
	at := t
	for {
		at += expGap(peak, rng)
		if rng.Float64()*peak <= f.RateAt(at) {
			return at - t
		}
	}
}

func expGap(perSec float64, rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() / perSec * float64(time.Second))
}

// CustomerClass is one tier of a boot-request population: Count distinct
// customers sharing an arrival Weight, each booting GroupSize VMs per
// request. A handful of large classes plus a long tail of singleton ones
// reproduces the mixed customer sizes a real front end serves.
type CustomerClass struct {
	// Name prefixes the customers of this class ("big" → big-0, big-1, …).
	Name string
	// Count is how many distinct customers the class holds.
	Count int
	// Weight is the class's share of boot requests (relative; need not
	// sum to 1 across classes).
	Weight float64
	// GroupSize is how many VMs one boot request asks for.
	GroupSize int
}

// Mix draws (customer, group size) pairs from a weighted set of classes.
// Customer names are precomputed so the pick path does not allocate.
type Mix struct {
	classes []CustomerClass
	cum     []float64 // cumulative weights
	total   float64
	names   [][]string
}

// NewMix validates the classes and precomputes the draw tables.
func NewMix(classes []CustomerClass) (*Mix, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: empty customer mix")
	}
	m := &Mix{classes: classes, cum: make([]float64, len(classes)), names: make([][]string, len(classes))}
	for i, c := range classes {
		if c.Count <= 0 || c.Weight <= 0 || c.GroupSize <= 0 {
			return nil, fmt.Errorf("workload: class %q needs positive count, weight and group size", c.Name)
		}
		m.total += c.Weight
		m.cum[i] = m.total
		m.names[i] = make([]string, c.Count)
		for j := range m.names[i] {
			m.names[i][j] = fmt.Sprintf("%s-%d", c.Name, j)
		}
	}
	return m, nil
}

// MeanGroup is the weight-averaged VMs per boot request.
func (m *Mix) MeanGroup() float64 {
	sum := 0.0
	for _, c := range m.classes {
		sum += c.Weight * float64(c.GroupSize)
	}
	return sum / m.total
}

// EachCustomer visits every customer in deterministic (class, index) order.
func (m *Mix) EachCustomer(fn func(customer string, class CustomerClass)) {
	for i, ns := range m.names {
		for _, n := range ns {
			fn(n, m.classes[i])
		}
	}
}

// Pick draws one boot request: a customer and how many VMs it boots.
func (m *Mix) Pick(rng *rand.Rand) (customer string, group int) {
	x := rng.Float64() * m.total
	for i, c := range m.cum {
		if x < c || i == len(m.cum)-1 {
			cl := m.classes[i]
			return m.names[i][rng.Intn(cl.Count)], cl.GroupSize
		}
	}
	panic("unreachable")
}
