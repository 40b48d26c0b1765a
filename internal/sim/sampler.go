package sim

import (
	"time"

	"vbundle/internal/obs"
)

// sampler is one registered virtual-time observation hook: fn runs at every
// boundary next, next+every, next+2·every, ...
type sampler struct {
	every time.Duration
	next  time.Duration
	fn    func(now time.Duration)
}

// AddSampler registers fn to run at every multiple of every of virtual time
// past the current instant, on the root goroutine, outside the event queue.
// The boundary semantics are exact: the sample at time t reflects precisely
// the events with timestamp < t — fn runs after every earlier event has
// executed and before any event at ≥ t starts, which is what makes sampled
// observations bit-identical at any shard count.
//
// Register samplers between runs, not from an event: a window's bound is
// fixed when it opens. Samplers observe; they must not schedule events or
// mutate simulation state. They do not occupy the event queue, so they never
// keep Run alive: boundaries beyond the last event fire only when a RunUntil
// deadline crosses them. Multiple samplers at one boundary fire in
// registration order. Panics if every is not positive.
func (e *Engine) AddSampler(every time.Duration, fn func(now time.Duration)) {
	if every <= 0 {
		panic("sim: AddSampler interval must be positive")
	}
	r := e.Root()
	r.samplers = append(r.samplers, sampler{every: every, next: r.now + every, fn: fn})
}

// nextSamplerAt returns the earliest pending sampler boundary, or infTime.
func (e *Engine) nextSamplerAt() time.Duration {
	next := infTime
	for i := range e.samplers {
		if e.samplers[i].next < next {
			next = e.samplers[i].next
		}
	}
	return next
}

// fireSamplers runs, in chronological order, every sampler boundary at or
// before bound. The clock (and every shard clock) is raised to each boundary
// before its callbacks run, so a sampler reads a globally consistent
// instant. Called on the root between windows, with all workers idle.
func (e *Engine) fireSamplers(bound time.Duration) {
	for len(e.samplers) > 0 {
		next := e.nextSamplerAt()
		if next > bound {
			return
		}
		if e.now < next {
			e.now = next
		}
		for _, s := range e.shards {
			if s.now < next {
				s.now = next
			}
		}
		// Fire every sampler due at this boundary in registration order,
		// advancing each so one boundary never fires twice.
		for i := range e.samplers {
			if e.samplers[i].next == next {
				e.samplers[i].next += e.samplers[i].every
				e.samplers[i].fn(next)
			}
		}
	}
}

// AttachObs wires a trace's observation hooks into the engine: the sampled
// metric series (when the trace has one) fires on the engine's virtual-time
// boundaries via AddSampler, and a diagnostic queue-depth histogram is
// registered for every queue: each shard's, and a root of K ≥ 2's own. A nil
// trace attaches nothing.
func AttachObs(e *Engine, tr *obs.Trace) {
	if tr == nil {
		return
	}
	r := e.Root()
	if reg := tr.Registry(); reg != nil {
		if len(r.shards) > 1 {
			r.depth = &obs.Histogram{}
			reg.RegisterDiagnosticHistogram("sim/queue_depth", r.depth)
		}
		for _, s := range r.shards {
			s.depth = &obs.Histogram{}
			reg.RegisterDiagnosticHistogram("sim/queue_depth", s.depth)
		}
	}
	if ser := tr.Series(); ser != nil {
		reg := tr.Registry()
		r.AddSampler(ser.Every(), func(now time.Duration) { ser.Sample(now, reg) })
	}
}
