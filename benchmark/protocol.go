package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// iterStats is the host-side accounting of one measured iteration.
type iterStats struct {
	setupS, runS    float64
	allocsK, allocB float64
	liveMB          float64
	gcCycles        float64
	gcPauseMS       float64
	gcCPUS          float64
	markAssistS     float64
	setupGCCPUS     float64
	runGCCPUS       float64
}

func statsOf(o *outcome, liveMB float64) iterStats {
	setup := o.rt[1].sub(o.rt[0])
	run := o.rt[3].sub(o.rt[2])
	return iterStats{
		setupS:      o.setupS,
		runS:        o.runS,
		allocsK:     float64(setup.allocObjects+run.allocObjects) / 1e3,
		allocB:      float64(setup.allocBytes + run.allocBytes),
		liveMB:      liveMB,
		gcCycles:    float64(setup.gcCycles + run.gcCycles),
		gcPauseMS:   (setup.gcPauseS + run.gcPauseS) * 1e3,
		gcCPUS:      setup.gcCPUS + run.gcCPUS,
		markAssistS: setup.markAssistS + run.markAssistS,
		setupGCCPUS: setup.gcCPUS,
		runGCCPUS:   run.gcCPUS,
	}
}

// series is one measured sequence of iterations of a scenario: the warm-up
// is run and checked but not kept.
type series struct {
	iters []iterStats
	// first is the warm-up's outcome (model, info, counts; stack dropped):
	// every later iteration must reproduce it exactly.
	first *outcome
	// iterIDs are the recorder iteration ids of the measured iterations
	// (the warm-up is iteration 0).
	iterIDs []int
}

// measure runs the scenario once to warm up and then repeatedly until the
// budget is spent (and at least minIters times). Before every iteration
// the previous stack is dropped and the heap collected, so each one starts
// from the same GC phase; after it, the live heap is read with the stack
// still reachable. An iteration whose modelled metrics, informational values
// or layer counts differ from the warm-up's fails the run.
func measure(sc *scenario, tmpl env, budget time.Duration, minIters int) (*series, error) {
	s := &series{}
	var start time.Time
	var longest time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		e := tmpl
		e.rec.nextIter(i)
		t0 := time.Now()
		o, err := sc.run(&e)
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", sc.name, i, err)
		}
		live := liveHeapMB()
		o.keep, o.trace = nil, nil
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if i == 0 {
			s.first = o
			start = time.Now()
			continue
		}
		if err := sameOutcome(s.first, o); err != nil {
			return nil, fmt.Errorf("%s iteration %d differs from the warm-up: %w", sc.name, i, err)
		}
		s.iters = append(s.iters, statsOf(o, live))
		s.iterIDs = append(s.iterIDs, i)
		// Stop once the budget is spent, or when one more iteration would
		// overshoot it.
		if len(s.iters) >= minIters && time.Since(start)+longest > budget {
			break
		}
	}
	return s, nil
}

// sameOutcome reports the first value that differs between two iterations
// of one scenario: everything sameModel compares, plus the layer counts.
func sameOutcome(a, b *outcome) error {
	if err := sameModel(a, b); err != nil {
		return err
	}
	return sameValues(a.counts, b.counts)
}

func sameValues(a, b map[string]float64) error {
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Errorf("%s: %v vs %v", k, a[k], bv)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d values vs %d", len(a), len(b))
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stat summarises one metric over the measured iterations. Modelled
// metrics repeat exactly, so they carry only Value.
type stat struct {
	Unit string `json:"unit"`
	// Value is what the metric reports: the median of the iterations, except
	// for the two clock metrics, setup_s and run_s, which report the fastest
	// iteration (see fastest).
	Value  float64 `json:"value"`
	K      int     `json:"k,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Max    float64 `json:"max,omitempty"`
}

// summarize returns the median, quartiles and extremes of v.
func summarize(unit string, v []float64) stat {
	if len(v) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	median := quantile(s, 0.5)
	return stat{
		Unit:   unit,
		Value:  median,
		K:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: median,
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// fastest makes a clock metric report its fastest iteration. What perturbs a
// clock on this box — neighbours on the host thrashing the shared cache —
// only ever adds time, so the fastest of K iterations is the one they left
// alone. Over two sets of ten seeds the fastest iteration spread no wider
// than the first quartile of the iterations and narrower than their median
// whenever the box had a slow spell (README.md, "Ten-seed spreads"); the
// median and the quartiles stay in the report beside it.
func fastest(st stat) stat {
	st.Value = st.Min
	return st
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func column(iters []iterStats, get func(iterStats) float64) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = get(it)
	}
	return out
}
