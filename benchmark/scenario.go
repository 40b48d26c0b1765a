package main

import (
	"fmt"
	"runtime"
	"time"

	"vbundle/internal/obs"
)

// engineSeed is the seed every stack is built with. It is a constant, not
// the -seed flag: ring ids, drop draws and maintenance jitter belong to the
// system under test, while -seed drives only the benchmark's generators, so
// two seeds differ in their inputs and in nothing else.
const engineSeed = 1

// env is what one iteration of a scenario receives.
type env struct {
	// seed drives the benchmark's generators (arrival streams, customer
	// picks, skewed load, leaf values) and nothing inside the stack.
	seed int64
	// servers overrides the workload's ring size (0 = the workload's own);
	// tests use it to run every scenario at 512 servers.
	servers int
	// shards selects the engine: 0 is the serial engine every measured run
	// uses, 2 the sharded probe.
	shards int
	// obs is the flight-recorder mode: zero untraced, Stream when traced.
	obs obs.Config
	// rec is the host-time span recorder (nil untraced).
	rec *recorder
}

func (e *env) size(own int) int {
	if e.servers > 0 {
		return e.servers
	}
	return own
}

// outcome is what one iteration produced.
type outcome struct {
	// setupS and runS are the host seconds of the two phases.
	setupS, runS float64
	// rt holds the runtime/metrics samples taken at the start and the end
	// of setup (0, 1) and of run (2, 3); the forced collection between the
	// phases falls between samples 1 and 2 and is charged to neither.
	rt [4]rtSample
	// ops is the number of operations the iteration attempted (the
	// workload's unit: servers, VM placements, migrations); failedOps
	// those that failed.
	ops, failedOps int
	// model holds the modelled-design metrics: virtual-time quantiles and
	// exact counts. They must be identical in every iteration.
	model map[string]float64
	// info holds values printed for information only (they must repeat
	// like model, but no bound applies).
	info map[string]float64
	// counts holds the per-layer work counts read from the stack after a
	// traced iteration. They must repeat as well.
	counts map[string]float64
	// trace is the iteration's flight recorder (nil untraced).
	trace *obs.Trace
	// keep pins the stack so the live heap can be measured after a forced
	// GC with everything still reachable.
	keep any
}

func newOutcome() *outcome {
	return &outcome{
		model:  make(map[string]float64),
		info:   make(map[string]float64),
		counts: make(map[string]float64),
	}
}

// phase runs one of the two timed phases: runtime sample, span, fn, runtime
// sample. idx is 0 for setup and 1 for run. The run phase starts behind a
// forced collection, outside both clocks, as setup does (measure collects
// before every iteration): where the GC cycle that setup left half-way would
// land otherwise decides whether a short run window holds one cycle more or
// less — on `ladder`, 12 % of run_s from one iteration to the next.
func (e *env) phase(o *outcome, idx int, fn func()) {
	name := [2]string{"setup", "run"}[idx]
	if idx == 1 {
		runtime.GC()
	}
	o.rt[2*idx] = readRuntime()
	e.rec.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	e.rec.end()
	o.rt[2*idx+1] = readRuntime()
	if idx == 0 {
		o.setupS = d
	} else {
		o.runS = d
	}
}

// scenario is one workload.
type scenario struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// op names the unit msgs_per_op and the ops count refer to.
	op string
	// servers is the ring size of the measured run.
	servers int
	// shardProbe marks the workloads the Shards = 2 probe repeats.
	shardProbe bool
	// viaCore marks the workloads whose stack core.New builds: its layer
	// constructors are timed by a probe, and the placement kernel applies.
	viaCore bool
	// byHand keeps the workload out of BENCHMARK.json: the driver's time
	// limit covers 4 + 22 runs per listed workload, and four workloads at
	// runSeconds each is what fits. The program runs it like the others.
	byHand bool
	run    func(e *env) (*outcome, error)
}

var scenarios = []scenario{
	{
		name:       "ladder",
		why:        "131072-server overlay build plus one aggregation round: construction, memory and GC bound; placement and serving idle",
		op:         "server",
		servers:    131072,
		shardProbe: true,
		run:        runLadder,
	},
	{
		name:    "serve_hot",
		why:     "repeat-heavy tenants on 8192 servers with cache and batching on: routing collapses, regions fill, spill walks dominate",
		op:      "VM placement",
		servers: 8192,
		viaCore: true,
		run:     func(e *env) (*outcome, error) { return runServe(e, serveHot) },
	},
	{
		name:    "boot_routed",
		why:     "8192 small tenants on 32768 servers with cache and batching off: every boot is DHT-routed, regions never fill",
		op:      "VM placement",
		servers: 32768,
		viaCore: true,
		run:     func(e *env) (*outcome, error) { return runServe(e, bootRouted) },
	},
	{
		name:       "rebalance",
		why:        "skewed load on 8192 servers shuffled for 75 virtual minutes: aggregation rounds, any-cast, leases and migrations; no serving",
		op:         "completed migration",
		servers:    8192,
		shardProbe: true,
		viaCore:    true,
		run:        func(e *env) (*outcome, error) { return runShuffle(e, rebalanceCfg) },
	},
	{
		name:    "crash_recover",
		why:     "the rebalance protocol under 2% loss with 10 crashed nodes and durable stores: retries, repair, checkpoints and rejoin",
		op:      "completed migration",
		servers: 512,
		viaCore: true,
		byHand:  true,
		run:     func(e *env) (*outcome, error) { return runShuffle(e, crashRecoverCfg) },
	},
}

func findScenario(name string) (*scenario, error) {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i], nil
		}
	}
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// quantileDur is the nearest-rank q-quantile of sorted durations, in
// milliseconds.
func quantileDur(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
