package main

import (
	"strings"
	"testing"

	"vbundle/internal/migration"
	"vbundle/internal/serve"
)

// The hard checks must turn every injected corruption into an error: main
// prints no result line and exits non-zero on any error runBenchmark returns.

func TestServeChecksCatchCorruption(t *testing.T) {
	good := serveResult{
		stats:      serve.Stats{Requested: 100, Placed: 100, Terminated: 30},
		registered: 70, hosted: 70,
	}
	if err := good.check(); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	cases := map[string]func(*serveResult){
		"placement lost":     func(r *serveResult) { r.hosted-- },                 // a placement dropped on the floor
		"leaked reservation": func(r *serveResult) { r.leaked = 1 },               // a hold never released
		"unresolved":         func(r *serveResult) { r.unresolved = 1 },           // a boot still in flight
		"!= requested":       func(r *serveResult) { r.stats.Placed-- },           // a boot that vanished
		"cluster holds":      func(r *serveResult) { r.registered++; r.hosted++ }, // a VM nobody booted
	}
	for want, corrupt := range cases {
		r := good
		corrupt(&r)
		if err := r.check(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("corruption %q: got %v", want, err)
		}
	}
}

func TestShuffleChecksCatchCorruption(t *testing.T) {
	good := shuffleResult{
		vmsBefore: 5120, vmsAfter: 5120, hosted: 5120,
		mig: migration.Stats{Started: 300, Completed: 298, Failed: 2},
	}
	if err := good.check(); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	cases := map[string]func(*shuffleResult){
		"VM lost":            func(r *shuffleResult) { r.hosted-- },
		"VM count changed":   func(r *shuffleResult) { r.vmsAfter--; r.hosted-- },
		"leaked reservation": func(r *shuffleResult) { r.leaked = 1 },
		"placements lost":    func(r *shuffleResult) { r.lostPlacements = 1 },
		"!= started":         func(r *shuffleResult) { r.mig.Completed-- },
	}
	for want, corrupt := range cases {
		r := good
		corrupt(&r)
		if err := r.check(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("corruption %q: got %v", want, err)
		}
	}
}

// TestMismatchedIterationFailsTheRun: a scenario whose modelled output
// drifts between iterations must fail measure, and so the whole run.
func TestMismatchedIterationFailsTheRun(t *testing.T) {
	calls := 0
	drifting := &scenario{name: "drifting", run: func(*env) (*outcome, error) {
		calls++
		o := newOutcome()
		o.ops = 10
		o.model["virt_p99_ms"] = 170
		if calls == 3 {
			o.model["virt_p99_ms"] = 171
		}
		return o, nil
	}}
	if _, err := measure(drifting, env{}, 0, 3); err == nil || !strings.Contains(err.Error(), "virt_p99_ms") {
		t.Fatalf("drifting scenario: got %v", err)
	}
	steady := &scenario{name: "steady", run: func(*env) (*outcome, error) {
		o := newOutcome()
		o.ops = 10
		o.model["virt_p99_ms"] = 170
		return o, nil
	}}
	s, err := measure(steady, env{}, 0, 3)
	if err != nil || len(s.iters) != 3 {
		t.Fatalf("steady scenario: %d iterations, %v", len(s.iters), err)
	}
	// A traced run that disagrees with the untraced one is caught the same way.
	a, b := newOutcome(), newOutcome()
	a.model["msgs_per_op"], b.model["msgs_per_op"] = 7.7, 7.8
	if sameModel(a, b) == nil {
		t.Error("traced/untraced mismatch not detected")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "ladder", "-trace", "2"},
		{"-workload", "ladder", "-seconds", "0"},
		{"-compare", "only-one.json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
