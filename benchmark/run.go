package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/obs"
)

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     int64
	// seconds is how long the measured iterations may take in total; the
	// warm-up, and in a traced run the probes and kernels, come on top.
	seconds float64
	trace   bool
	// outDir receives <workload>.spans.json after a traced run.
	outDir string
	// servers overrides the workload's ring size (tests only).
	servers int
}

// measureProcs is the GOMAXPROCS of every measured iteration: one. The
// simulations have one mutator goroutine; a second P would serve only the
// GC's background workers, so whether a GC cycle costs the run time would
// depend on whether the host has a second core free at that moment. On one
// P the collector's work is paid in the run's own time, every time. The
// Shards = 2 probe alone raises it to two.
const measureProcs = 1

// Shares of a traced run's budget: the untraced iterations that give the
// baseline run_s and the runtime accounting, then the traced ones.
const (
	untracedShare = 0.35
	tracedShare   = 0.35
)

// envInfo records where and how a result was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`
}

func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// result is everything one invocation measured. It is what -out writes and
// -compare reads.
type result struct {
	Workload   string  `json:"workload"`
	Op         string  `json:"op"`
	Seed       int64   `json:"seed"`
	Servers    int     `json:"servers"`
	Traced     bool    `json:"traced"`
	Env        envInfo `json:"env"`
	WarmUps    int     `json:"warm_ups"`
	Iterations int     `json:"iterations"`
	WallS      float64 `json:"wall_s"`
	// Attempted and Failed count the operations of one iteration.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd always comes from untraced iterations.
	EndToEnd map[string]stat `json:"end_to_end"`
	// PerLayer is present after a traced run.
	PerLayer map[string]stat `json:"per_layer,omitempty"`
	// Info is printed, never gated.
	Info map[string]float64 `json:"info"`
	// EstimatedShare is count × unit cost / run_s for the layers with a
	// kernel. The unit costs nest, so the shares overlap: estimates only.
	EstimatedShare map[string]float64 `json:"estimated_share_of_run_s,omitempty"`
	// Claim is always null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// runBenchmark measures one workload as the run protocol prescribes.
func runBenchmark(opt options) (*result, error) {
	sc, err := findScenario(opt.workload)
	if err != nil {
		return nil, err
	}
	procs := measureProcs
	runtime.GOMAXPROCS(procs)
	started := time.Now()
	res := &result{
		Workload: sc.name,
		Op:       sc.op,
		Seed:     opt.seed,
		Servers:  sc.servers,
		Traced:   opt.trace,
		Env:      envInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GitRev: gitRev()},
		WarmUps:  1,
		Info:     make(map[string]float64),
	}
	if opt.servers > 0 {
		res.Servers = opt.servers
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	base := env{seed: opt.seed, servers: opt.servers}

	if !opt.trace {
		s, err := measure(sc, base, budget, 3)
		if err != nil {
			return nil, err
		}
		res.fillEndToEnd(s)
		res.WallS = time.Since(started).Seconds()
		return res, nil
	}

	plain, err := measure(sc, base, time.Duration(untracedShare*float64(budget)), 2)
	if err != nil {
		return nil, err
	}
	res.fillEndToEnd(plain)

	rec := newRecorder()
	tracedEnv := base
	tracedEnv.obs = obs.Config{Stream: true}
	tracedEnv.rec = rec
	traced, err := measure(sc, tracedEnv, time.Duration(tracedShare*float64(budget)), 2)
	if err != nil {
		return nil, err
	}
	if err := sameModel(plain.first, traced.first); err != nil {
		return nil, fmt.Errorf("%s: traced run differs from untraced: %w", sc.name, err)
	}
	res.PerLayer = make(map[string]stat)
	res.fillSpans(rec, traced)
	res.fillCounts(traced.first.counts)
	res.fillRuntime(plain, procs)
	plainRun := res.EndToEnd["run_s"].Value
	tracedRun := summarize("s", column(traced.iters, func(it iterStats) float64 { return it.runS })).Min
	res.set("obs.trace_overhead_frac", tracedRun/plainRun-1)

	if sc.shardProbe {
		if err := res.shardProbe(sc, base, plain, plainRun); err != nil {
			return nil, err
		}
	}
	if sc.viaCore {
		if err := res.constructionProbe(res.Servers); err != nil {
			return nil, err
		}
	}
	kernels, err := runKernels(res.Servers, sc.viaCore)
	if err != nil {
		return nil, fmt.Errorf("%s kernels: %w", sc.name, err)
	}
	for name, ns := range kernels {
		res.set(name, ns)
	}
	res.fillShares(plainRun)

	if opt.outDir != "" {
		if err := rec.write(filepath.Join(opt.outDir, sc.name+".spans.json")); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// sameModel checks that two runs of one scenario agree on everything the
// model produced: operations, modelled metrics and informational values.
func sameModel(a, b *outcome) error {
	if a.ops != b.ops || a.failedOps != b.failedOps {
		return fmt.Errorf("ops %d/%d failed vs %d/%d", a.ops, a.failedOps, b.ops, b.failedOps)
	}
	if err := sameValues(a.model, b.model); err != nil {
		return err
	}
	return sameValues(a.info, b.info)
}

// fillEndToEnd derives the end-to-end metrics from an untraced series.
func (r *result) fillEndToEnd(s *series) {
	r.Iterations = len(s.iters)
	r.Attempted = s.first.ops
	r.Failed = s.first.failedOps
	r.EndToEnd = make(map[string]stat)
	host := map[string]func(iterStats) float64{
		"setup_s":      func(it iterStats) float64 { return it.setupS },
		"run_s":        func(it iterStats) float64 { return it.runS },
		"allocs_k":     func(it iterStats) float64 { return it.allocsK },
		"alloc_mb":     func(it iterStats) float64 { return it.allocB / 1e6 },
		"live_heap_mb": func(it iterStats) float64 { return it.liveMB },
	}
	for _, m := range endToEnd {
		if !m.definedOn(r.Workload) {
			continue
		}
		if get, ok := host[m.Name]; ok {
			st := summarize(m.Unit, column(s.iters, get))
			if m.Name == "setup_s" || m.Name == "run_s" {
				st = fastest(st)
			}
			r.EndToEnd[m.Name] = st
		} else if v, ok := s.first.model[m.Name]; ok {
			r.EndToEnd[m.Name] = stat{Unit: m.Unit, Value: v}
		}
	}
	r.EndToEnd["peak_rss_mb"] = stat{Unit: "MB", Value: peakRSSMB()}
	for k, v := range s.first.info {
		r.Info[k] = v
	}
}

// set stores one per-layer value if the catalogue defines it here.
func (r *result) set(name string, v float64) {
	if m, ok := findMetric(perLayer, name); ok && m.definedOn(r.Workload) {
		r.PerLayer[name] = stat{Unit: m.Unit, Value: v}
	}
}

// fillSpans turns the traced iterations' spans into per-layer times: the
// median over the measured iterations of each span name's total (or self)
// time.
func (r *result) fillSpans(rec *recorder, s *series) {
	median := func(self bool, names ...string) (stat, bool) {
		vals := make([]float64, 0, len(s.iterIDs))
		seen := false
		for _, id := range s.iterIDs {
			total := 0.0
			for _, name := range names {
				dur, selfS, calls := rec.sum(id, name)
				if calls > 0 {
					seen = true
				}
				if self {
					total += selfS
				} else {
					total += dur
				}
			}
			vals = append(vals, total)
		}
		return summarize("s", vals), seen
	}
	put := func(metric string, self bool, names ...string) {
		m, ok := findMetric(perLayer, metric)
		if !ok || !m.definedOn(r.Workload) {
			return
		}
		if st, seen := median(self, names...); seen {
			r.PerLayer[metric] = st
		}
	}
	// A span is named after the metric it feeds: <metric minus "_s">.
	for _, name := range []string{
		"topology.build", "pastry.ring_new", "pastry.build_static", "scribe.new", "aggregation.new",
		"aggregation.subscribe", "aggregation.set_local", "cluster.seed", "core.new", "serve.new",
		"serve.boot_call", "serve.terminate_call",
	} {
		put(name+"_s", false, name)
	}
	put("workload.gen_s", true, "workload.gen", "workload.sample")
	put("sim.run_self_s", true, "sim.run")
}

// fillCounts copies the layer counts the scenario read from the stack.
func (r *result) fillCounts(counts map[string]float64) {
	for name, v := range counts {
		r.set(name, v)
	}
}

// fillRuntime derives the GC accounting from the untraced iterations: the
// tax as the measured run pays it, not as the recorder inflates it.
func (r *result) fillRuntime(s *series, procs int) {
	put := func(name string, get func(iterStats) float64) {
		m, _ := findMetric(perLayer, name)
		r.PerLayer[name] = summarize(m.Unit, column(s.iters, get))
	}
	put("runtime.gc_cycles", func(it iterStats) float64 { return it.gcCycles })
	put("runtime.gc_pause_ms", func(it iterStats) float64 { return it.gcPauseMS })
	put("runtime.gc_cpu_s", func(it iterStats) float64 { return it.gcCPUS })
	put("runtime.mark_assist_s", func(it iterStats) float64 { return it.markAssistS })
	put("runtime.setup_gc_cpu_s", func(it iterStats) float64 { return it.setupGCCPUS })
	put("runtime.run_gc_cpu_s", func(it iterStats) float64 { return it.runGCCPUS })
	put("runtime.gc_cpu_frac", func(it iterStats) float64 {
		return it.gcCPUS / (float64(procs) * (it.setupS + it.runS))
	})
}

// shardProbe repeats the scenario at Shards = 2 — the first recorded
// sharded result on a 2-CPU box. Its modelled outputs must equal the serial
// run's.
func (r *result) shardProbe(sc *scenario, base env, plain *series, plainRun float64) error {
	base.shards = 2
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(measureProcs)
	probe, err := measure(sc, base, 0, 2)
	if err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	if probe.first.ops != plain.first.ops || probe.first.failedOps != plain.first.failedOps {
		return fmt.Errorf("shard probe: ops differ from the serial run")
	}
	if err := sameValues(plain.first.model, probe.first.model); err != nil {
		return fmt.Errorf("shard probe differs from the serial run: %w", err)
	}
	run := summarize("s", column(probe.iters, func(it iterStats) float64 { return it.runS })).Min
	info := probe.first.info
	r.set("sim.shard2_run_s", run)
	r.set("sim.shard2_speedup", plainRun/run)
	r.set("sim.shard2_windows", info["shard_windows"])
	r.set("sim.shard2_self_caps", info["shard_self_caps"])
	if w := info["shard_windows"]; w > 0 {
		r.set("sim.shard2_events_per_window", info["shard_events"]/w)
	}
	return nil
}

// constructionProbe builds the layers under core.New by hand, once per
// batch, at the workload's ring size: core.New hides its constructors from
// an outside timer, so their cost is measured in isolation (fastest of
// three) rather than inside the iterations.
func (r *result) constructionProbe(servers int) error {
	best := make(map[string]float64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		rec := newRecorder()
		st, err := buildLadder(&env{rec: rec}, servers, nil)
		if err != nil {
			return fmt.Errorf("construction probe: %w", err)
		}
		topo := st.ring.Topology()
		rec.time("cluster.new", func() {
			cluster.New(topo, cluster.Resources{CPU: 16, MemMB: 16384, BandwidthMbps: topo.NICMbps()})
		})
		for _, sp := range rec.spans {
			d := float64(sp.DurNs) / 1e9
			if old, ok := best[sp.Name]; !ok || d < old {
				best[sp.Name] = d
			}
		}
	}
	for span, d := range best {
		r.set(span+"_s", d)
	}
	return nil
}

// fillShares estimates each kernel-backed layer's share of run_s.
func (r *result) fillShares(runS float64) {
	r.EstimatedShare = make(map[string]float64)
	for layer, pair := range map[string][2]string{
		"sim":       {"sim.events", "sim.pop_ns"},
		"simnet":    {"simnet.msgs_sent", "simnet.deliver_ns"},
		"pastry":    {"pastry.route_hops", "pastry.route_ns"},
		"scribe":    {"scribe.anycasts_seen", "scribe.anycast_ns"},
		"placement": {"placement.queries", "placement.boot_ns"},
	} {
		count, okC := r.PerLayer[pair[0]]
		unit, okU := r.PerLayer[pair[1]]
		if okC && okU && count.Value > 0 && runS > 0 {
			r.EstimatedShare[layer] = count.Value * unit.Value / 1e9 / runS
		}
	}
}
