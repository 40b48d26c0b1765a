// Package workload generates the VM bandwidth demands that drive the
// v-Bundle experiments: simple analytic generators (flat, bursty) for the
// large-scale rebalancing simulations, and models of the two applications
// the paper's testbed evaluation runs — SIPp, a SIP call generator whose QoS
// (failed calls, response time) degrades when starved of bandwidth, and
// Iperf, a greedy bulk-traffic source used to create contention (§V.A).
package workload

import (
	"math"
	"math/rand"
	"time"
)

// Generator produces a bandwidth demand (Mbps) as a function of virtual
// time.
type Generator interface {
	DemandAt(t time.Duration) float64
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(t time.Duration) float64

// DemandAt calls f.
func (f GeneratorFunc) DemandAt(t time.Duration) float64 { return f(t) }

var _ Generator = GeneratorFunc(nil)

// Flat returns a constant demand.
func Flat(mbps float64) Generator {
	return GeneratorFunc(func(time.Duration) float64 { return mbps })
}

// Bursty alternates between a low and a high demand with the given period
// and duty cycle (fraction of the period spent high); phase staggers VMs.
func Bursty(low, high float64, period time.Duration, duty, phase float64) Generator {
	return GeneratorFunc(func(t time.Duration) float64 {
		pos := math.Mod(t.Seconds()/period.Seconds()+phase, 1)
		if pos < 0 {
			pos++
		}
		if pos < duty {
			return high
		}
		return low
	})
}

// SIPp models the paper's SIP traffic generator (§V.A): the call rate
// starts at 800 calls/s and climbs by 10 calls/s every second up to 3000.
// Each established call needs a fixed slice of bandwidth for its RTP media;
// when the VM's allocated bandwidth covers fewer concurrent calls than
// offered, the excess calls fail, and response times inflate with the
// degree of starvation.
type SIPp struct {
	// StartRate, RatePerSec and MaxRate describe the call-rate ramp in
	// calls per second (defaults: 800, 10, 3000).
	StartRate, RatePerSec, MaxRate float64
	// PerCallKbps is the media bandwidth per call (default 32 kb/s, a
	// typical compressed-audio RTP stream).
	PerCallKbps float64
	// BaseRTms is the response time of an unstarved call in milliseconds
	// (default 5ms).
	BaseRTms float64
	// rng adds jitter to response-time samples.
	rng *rand.Rand

	totalCalls  int
	failedCalls int
}

// NewSIPp creates a SIPp instance with the paper's ramp parameters.
func NewSIPp(seed int64) *SIPp {
	return &SIPp{
		StartRate:   800,
		RatePerSec:  10,
		MaxRate:     3000,
		PerCallKbps: 32,
		BaseRTms:    5,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// OfferedRate returns the call rate (calls/s) at time t.
func (s *SIPp) OfferedRate(t time.Duration) float64 {
	r := s.StartRate + s.RatePerSec*t.Seconds()
	if r > s.MaxRate {
		r = s.MaxRate
	}
	return r
}

// DemandAt implements Generator: the bandwidth needed to carry the full
// offered call rate.
func (s *SIPp) DemandAt(t time.Duration) float64 {
	return s.OfferedRate(t) * s.PerCallKbps / 1000
}

var _ Generator = (*SIPp)(nil)

// StepResult reports one evaluation interval of the SIPp workload.
type StepResult struct {
	// OfferedCalls and FailedCalls count calls in the interval.
	OfferedCalls, FailedCalls int
	// ResponseTimesMs samples the response times of a subset of the
	// interval's successful calls.
	ResponseTimesMs []float64
}

// maxRTSamplesPerStep bounds the per-step response-time sampling.
const maxRTSamplesPerStep = 50

// Step evaluates one interval of length dt ending at time t, given the
// bandwidth actually allocated to the SIPp VM. Calls beyond the allocated
// capacity fail; the remainder succeed with response times that grow as
// allocation falls short of demand (queueing at the starved NIC).
func (s *SIPp) Step(t, dt time.Duration, allocatedMbps float64) StepResult {
	offeredRate := s.OfferedRate(t)
	offered := int(offeredRate * dt.Seconds())
	capacityRate := allocatedMbps * 1000 / s.PerCallKbps // calls/s the pipe carries
	carried := int(capacityRate * dt.Seconds())
	failed := 0
	if carried < offered {
		failed = offered - carried
	}
	s.totalCalls += offered
	s.failedCalls += failed

	// Response time: unstarved calls answer at BaseRT with mild jitter;
	// as utilization of the allocation approaches 1 the M/M/1-style
	// queueing factor 1/(1-rho) inflates it.
	res := StepResult{OfferedCalls: offered, FailedCalls: failed}
	succeeded := offered - failed
	samples := succeeded
	if samples > maxRTSamplesPerStep {
		samples = maxRTSamplesPerStep
	}
	rho := 0.0
	if capacityRate > 0 {
		rho = offeredRate / capacityRate
	} else {
		rho = 1
	}
	if rho > 0.99 {
		rho = 0.99
	}
	for i := 0; i < samples; i++ {
		rt := s.BaseRTms / (1 - rho)
		rt *= 0.8 + 0.4*s.rng.Float64() // ±20% jitter
		res.ResponseTimesMs = append(res.ResponseTimesMs, rt)
	}
	return res
}

// Totals returns cumulative offered and failed call counts.
func (s *SIPp) Totals() (offered, failed int) { return s.totalCalls, s.failedCalls }

// Iperf models the greedy bulk-TCP interference workload: it demands its
// configured target rate from start onward (Iperf pairs run continuously
// in the paper's testbed to create the bandwidth bottleneck).
type Iperf struct {
	// TargetMbps is the stream's offered rate.
	TargetMbps float64
	// Start is when the stream begins.
	Start time.Duration
}

// DemandAt implements Generator.
func (ip *Iperf) DemandAt(t time.Duration) float64 {
	if t < ip.Start {
		return 0
	}
	return ip.TargetMbps
}

var _ Generator = (*Iperf)(nil)
