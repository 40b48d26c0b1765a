package main

// metricDef describes one metric the benchmark emits. The catalogue is the
// single list the program, BENCHMARK.json, the README tables and -compare
// agree on (catalog_test.go holds them together).
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare, which holds two runs of one seed
	// against each other, calls it worse. Modelled metrics repeat exactly on
	// a fixed seed, so their bound is 0.
	Bound float64
	// SeedBound is the bound BENCHMARK.json carries, for the driver's
	// comparison of medians over ten different seeds. It is set only on the
	// end-to-end metrics defined on every workload and never zero, and is
	// more than twice the widest ten-seed spread measured (README.md), so it
	// is looser than Bound wherever the inputs, not the clock, vary.
	SeedBound float64
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
	// On lists the workloads the metric is defined for (nil = all five).
	On []string
}

func (m metricDef) definedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	serveWorkloads   = []string{"serve_hot", "boot_routed"}
	shuffleWorkloads = []string{"rebalance", "crash_recover"}
	coreWorkloads    = []string{"serve_hot", "boot_routed", "rebalance", "crash_recover"}
	latencyWorkloads = []string{"ladder", "serve_hot", "boot_routed"}
	probeWorkloads   = []string{"ladder", "rebalance"}
)

// endToEnd is what a user of the system sees. The first six are host-time
// or memory (median over iterations); the rest are the modelled design:
// virtual time and exact counts, identical run to run on a fixed seed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SeedBound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, SeedBound: 0.25},
	{Name: "allocs_k", Unit: "kobjects", Better: "lower", Bound: 0.01, SeedBound: 0.18},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.01, SeedBound: 0.18},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, SeedBound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, SeedBound: 0.10},
	{Name: "msgs_per_op", Unit: "msgs", Better: "lower", SeedBound: 0.21},
	{Name: "virt_p50_ms", Unit: "ms", Better: "lower", On: latencyWorkloads},
	{Name: "virt_p99_ms", Unit: "ms", Better: "lower", On: latencyWorkloads},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "same_rack_frac", Unit: "ratio", Better: "higher", On: serveWorkloads},
	{Name: "virt_settle_s", Unit: "s", Better: "lower", On: shuffleWorkloads},
}

// perLayer is what the traced run attributes to single layers. Times and
// unit costs are host measurements; everything else is a count read from
// the layer's public counters or the flight recorder.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "sim.queue_depth_p99", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "sim.run_self_s", Unit: "s", Better: "lower", Moves: "run_s"},
	{Name: "sim.pop_ns", Unit: "ns", Better: "lower", Moves: "run_s"},
	{Name: "sim.shard2_run_s", Unit: "s", Better: "lower", Moves: "none", On: probeWorkloads},
	{Name: "sim.shard2_speedup", Unit: "ratio", Better: "higher", Moves: "none", On: probeWorkloads},
	{Name: "sim.shard2_windows", Unit: "count", Better: "lower", Moves: "none", On: probeWorkloads},
	{Name: "sim.shard2_events_per_window", Unit: "count", Better: "higher", Moves: "none", On: probeWorkloads},
	{Name: "sim.shard2_self_caps", Unit: "count", Better: "lower", Moves: "none", On: probeWorkloads},

	{Name: "simnet.msgs_sent", Unit: "count", Better: "lower", Moves: "msgs_per_op"},
	{Name: "simnet.bytes_sent", Unit: "B", Better: "lower", Moves: "run_s"},
	{Name: "simnet.msgs_dropped", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "simnet.deliver_ns", Unit: "ns", Better: "lower", Moves: "run_s"},

	{Name: "topology.build_s", Unit: "s", Better: "lower", Moves: "setup_s"},

	{Name: "pastry.ring_new_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "pastry.build_static_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "pastry.deliveries", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "pastry.route_hops", Unit: "count", Better: "lower", Moves: "virt_p50_ms"},
	{Name: "pastry.hops_p50", Unit: "count", Better: "lower", Moves: "virt_p50_ms"},
	{Name: "pastry.hops_p99", Unit: "count", Better: "lower", Moves: "virt_p99_ms"},
	{Name: "pastry.route_ns", Unit: "ns", Better: "lower", Moves: "run_s"},

	{Name: "scribe.new_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "scribe.joins_handled", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "scribe.multicasts_relayed", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "scribe.anycasts_seen", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "scribe.anycast_steps", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "scribe.anycasts_retried", Unit: "count", Better: "lower", Moves: "virt_settle_s"},
	{Name: "scribe.orphan_accepts", Unit: "count", Better: "lower", Moves: "virt_settle_s"},
	{Name: "scribe.anycast_p99_ms", Unit: "ms", Better: "lower", Moves: "virt_settle_s"},
	{Name: "scribe.anycast_ns", Unit: "ns", Better: "lower", Moves: "run_s"},

	{Name: "aggregation.new_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "aggregation.subscribe_s", Unit: "s", Better: "lower", Moves: "run_s", On: []string{"ladder"}},
	{Name: "aggregation.set_local_s", Unit: "s", Better: "lower", Moves: "run_s", On: []string{"ladder"}},
	{Name: "aggregation.folds", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "aggregation.tree_height", Unit: "count", Better: "lower", Moves: "virt_p99_ms", On: []string{"ladder", "rebalance", "crash_recover"}},

	{Name: "cluster.new_s", Unit: "s", Better: "lower", Moves: "setup_s", On: coreWorkloads},
	{Name: "cluster.seed_s", Unit: "s", Better: "lower", Moves: "setup_s", On: []string{"serve_hot", "rebalance", "crash_recover"}},
	{Name: "cluster.vms", Unit: "count", Better: "lower", Moves: "live_heap_mb", On: coreWorkloads},

	{Name: "placement.queries", Unit: "count", Better: "lower", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "placement.hops_mean", Unit: "count", Better: "lower", Moves: "run_s", On: serveWorkloads},
	{Name: "placement.hops_p99", Unit: "count", Better: "lower", Moves: "virt_p99_ms", On: serveWorkloads},
	{Name: "placement.timeouts", Unit: "count", Better: "lower", Moves: "failed_frac", On: serveWorkloads},
	{Name: "placement.boot_ns", Unit: "ns", Better: "lower", Moves: "run_s", On: coreWorkloads},
	{Name: "placement.cache_hits", Unit: "count", Better: "higher", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "placement.cache_misses", Unit: "count", Better: "lower", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "placement.cache_evictions", Unit: "count", Better: "lower", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "placement.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "virt_p50_ms", On: serveWorkloads},

	{Name: "serve.new_s", Unit: "s", Better: "lower", Moves: "setup_s", On: serveWorkloads},
	{Name: "serve.boot_call_s", Unit: "s", Better: "lower", Moves: "run_s", On: serveWorkloads},
	{Name: "serve.terminate_call_s", Unit: "s", Better: "lower", Moves: "run_s", On: serveWorkloads},
	{Name: "serve.requested", Unit: "count", Better: "higher", Moves: "run_s", On: serveWorkloads},
	{Name: "serve.placed", Unit: "count", Better: "higher", Moves: "failed_frac", On: serveWorkloads},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "failed_frac", On: serveWorkloads},
	{Name: "serve.failed", Unit: "count", Better: "lower", Moves: "failed_frac", On: serveWorkloads},
	{Name: "serve.batches", Unit: "count", Better: "higher", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher", Moves: "msgs_per_op", On: serveWorkloads},
	{Name: "serve.terminate_misses", Unit: "count", Better: "lower", Moves: "run_s", On: serveWorkloads},

	{Name: "rebalance.queries_sent", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "rebalance.migrations_triggered", Unit: "count", Better: "lower", Moves: "virt_settle_s", On: shuffleWorkloads},
	{Name: "rebalance.role_flips", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "rebalance.lease_grants", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "rebalance.lease_renews", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "rebalance.lease_expired", Unit: "count", Better: "lower", Moves: "failed_frac", On: shuffleWorkloads},
	{Name: "rebalance.lease_hold_p99_ms", Unit: "ms", Better: "lower", Moves: "virt_settle_s", On: shuffleWorkloads},
	{Name: "rebalance.unknown_releases", Unit: "count", Better: "lower", Moves: "failed_frac", On: shuffleWorkloads},
	{Name: "rebalance.duplicate_releases", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "rebalance.leaked", Unit: "count", Better: "lower", Moves: "failed_frac", On: shuffleWorkloads},

	{Name: "migration.started", Unit: "count", Better: "lower", Moves: "virt_settle_s", On: shuffleWorkloads},
	{Name: "migration.completed", Unit: "count", Better: "higher", Moves: "virt_settle_s", On: shuffleWorkloads},
	{Name: "migration.failed", Unit: "count", Better: "lower", Moves: "failed_frac", On: shuffleWorkloads},
	{Name: "migration.duration_p99_ms", Unit: "ms", Better: "lower", Moves: "virt_settle_s", On: shuffleWorkloads},
	{Name: "migration.moved_mem_mb", Unit: "MB", Better: "lower", Moves: "virt_settle_s", On: shuffleWorkloads},

	{Name: "workload.gen_s", Unit: "s", Better: "lower", Moves: "run_s", On: coreWorkloads},

	{Name: "tcshape.allocate_ns", Unit: "ns", Better: "lower", Moves: "run_s"},

	{Name: "store.save_ns", Unit: "ns", Better: "lower", Moves: "run_s"},
	{Name: "core.new_s", Unit: "s", Better: "lower", Moves: "setup_s", On: coreWorkloads},
	{Name: "core.restarts", Unit: "count", Better: "lower", Moves: "run_s", On: shuffleWorkloads},
	{Name: "core.adopted_leases", Unit: "count", Better: "higher", Moves: "failed_frac", On: shuffleWorkloads},
	{Name: "core.released_leases", Unit: "count", Better: "lower", Moves: "failed_frac", On: shuffleWorkloads},
	{Name: "core.verified_placements", Unit: "count", Better: "higher", Moves: "failed_frac", On: shuffleWorkloads},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "run_s"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "run_s"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower", Moves: "run_s"},
	{Name: "runtime.mark_assist_s", Unit: "s", Better: "lower", Moves: "run_s"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "run_s"},
	{Name: "runtime.setup_gc_cpu_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "runtime.run_gc_cpu_s", Unit: "s", Better: "lower", Moves: "run_s"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "none"},
	{Name: "obs.events_recorded", Unit: "count", Better: "lower", Moves: "none"},
}

func findMetric(list []metricDef, name string) (metricDef, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
