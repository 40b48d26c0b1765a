package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"vbundle/internal/experiments"
	"vbundle/internal/obs"
)

const testServers = 512

// TestWorkloadsRepeatAndCoverSetup runs every workload traced at 512
// servers: the second iteration must reproduce the first value for value
// (modelled metrics, informational values, layer counts — measure fails
// otherwise), the traced run must reproduce an untraced one, and the spans
// under `setup` must account for at least 90 % of it.
func TestWorkloadsRepeatAndCoverSetup(t *testing.T) {
	for i := range scenarios {
		sc := &scenarios[i]
		t.Run(sc.name, func(t *testing.T) {
			rec := newRecorder()
			traced, err := measure(sc, env{seed: 1, servers: testServers, obs: obs.Config{Stream: true}, rec: rec}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			o, err := sc.run(&env{seed: 1, servers: testServers})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameModel(o, traced.first); err != nil {
				t.Errorf("traced run differs from untraced: %v", err)
			}
			if o.ops == 0 || o.failedOps != 0 {
				t.Errorf("ops %d, failed %d", o.ops, o.failedOps)
			}
			for _, sp := range rec.spans {
				if sp.Name != "setup" || sp.DurNs == 0 {
					continue
				}
				if cover := float64(sp.ChildNs) / float64(sp.DurNs); cover < 0.9 {
					t.Errorf("iteration %d: setup children cover %.0f%% of setup", sp.Iter, 100*cover)
				}
			}
		})
	}
}

// TestSeedChangesInputs: another seed must change what the generators feed
// the stack.
func TestSeedChangesInputs(t *testing.T) {
	sc, _ := findScenario("serve_hot")
	a, err := sc.run(&env{seed: 1, servers: testServers})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.run(&env{seed: 2, servers: testServers})
	if err != nil {
		t.Fatal(err)
	}
	if sameOutcome(a, b) == nil {
		t.Error("seeds 1 and 2 produced identical outcomes")
	}
}

// TestLadderMatchesAggLatency: the hand-built ladder stack reproduces
// experiments.RunAggLatency on the same ring.
func TestLadderMatchesAggLatency(t *testing.T) {
	want, err := experiments.RunAggLatency(experiments.AggLatencyParams{Sizes: []int{testServers}, Seed: engineSeed, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runLadder(&env{seed: 1, servers: testServers})
	if err != nil {
		t.Fatal(err)
	}
	pt := want.Points[0]
	if ms := float64(pt.RawMean) / float64(time.Millisecond); got.info["virt_mean_ms"] != ms {
		t.Errorf("mean latency %v ms, RunAggLatency %v ms", got.info["virt_mean_ms"], ms)
	}
	if int(got.info["tree_height"]) != pt.TreeHeight {
		t.Errorf("tree height %v, RunAggLatency %d", got.info["tree_height"], pt.TreeHeight)
	}
}

// TestRebalanceMatchesRunRebalance: the re-implemented skewed-load seeding
// and sampling reproduce experiments.RunRebalance on the same seed.
func TestRebalanceMatchesRunRebalance(t *testing.T) {
	cfg := rebalanceCfg
	want, err := experiments.RunRebalance(experiments.RebalanceParams{
		Spec:         experiments.ScaledSpec(testServers),
		VMsPerServer: cfg.vmsPerServer,
		Seed:         engineSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runShuffle(&env{seed: engineSeed, servers: testServers, obs: obs.Config{Metrics: true}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int(got.info["migrations_completed"]) != want.MigrationsCompleted {
		t.Errorf("migrations completed %v, RunRebalance %d", got.info["migrations_completed"], want.MigrationsCompleted)
	}
	if int(got.info["queries_sent"]) != want.Queries {
		t.Errorf("queries %v, RunRebalance %d", got.info["queries_sent"], want.Queries)
	}
	if int(got.counts["rebalance.migrations_triggered"]) != want.Migrations {
		t.Errorf("migrations triggered %v, RunRebalance %d", got.counts["rebalance.migrations_triggered"], want.Migrations)
	}
}

// TestServeHotMatchesRunServe: the re-implemented arrival generators
// reproduce experiments.RunServe stat for stat on the same seed.
func TestServeHotMatchesRunServe(t *testing.T) {
	cfg := serveHot
	want, err := experiments.RunServe(experiments.ServeParams{
		Spec:       experiments.ScaledSpec(testServers),
		Mix:        cfg.mix,
		RatePerSec: cfg.ratePerSec * testServers / float64(cfg.servers),
		Prewarm:    cfg.prewarm,
		Duration:   cfg.duration,
		Drain:      cfg.drain,
		Cache:      cfg.cache,
		Batch:      cfg.batch,
		Seed:       engineSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runServe(&env{seed: engineSeed, servers: testServers, obs: obs.Config{Metrics: true}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := want.Stats
	for name, w := range map[string]int{
		"serve.requested":        s.Requested,
		"serve.placed":           s.Placed,
		"serve.shed":             s.Shed,
		"serve.failed":           s.Failed,
		"serve.batches":          s.Batches,
		"serve.terminate_misses": s.TerminateMisses,
		"placement.queries":      s.Queries,
	} {
		if int(got.counts[name]) != w {
			t.Errorf("%s = %v, RunServe %d", name, got.counts[name], w)
		}
	}
	if int(got.info["terminated"]) != s.Terminated {
		t.Errorf("terminated %v, RunServe %d", got.info["terminated"], s.Terminated)
	}
	if got.model["msgs_per_op"] != want.MsgsPerPlacement {
		t.Errorf("msgs per placement %v, RunServe %v", got.model["msgs_per_op"], want.MsgsPerPlacement)
	}
	if got.model["virt_p99_ms"] != want.P99 {
		t.Errorf("p99 %v ms, RunServe %v ms", got.model["virt_p99_ms"], want.P99)
	}
}

// TestProgramEmitsBenchmarkJSONNames runs the whole protocol at 512 servers
// and holds the driver's result line against BENCHMARK.json: every name in
// the file is emitted and nothing else, untraced and traced.
func TestProgramEmitsBenchmarkJSONNames(t *testing.T) {
	file := fromCatalogue()
	for _, workload := range []string{"rebalance", "serve_hot"} {
		for _, trace := range []bool{false, true} {
			res, err := runBenchmark(options{workload: workload, seed: 1, seconds: 0.001, trace: trace, servers: testServers, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			line, err := res.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool                      `json:"correct"`
				Attempted int                       `json:"attempted"`
				Failed    int                       `json:"failed"`
				Metrics   map[string]contractMetric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d", workload, trace, got.Correct, got.Attempted, got.Failed)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range file.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range file.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, m := range got.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: emits %s, which BENCHMARK.json does not list", workload, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", workload, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", workload, trace, name, m.Value)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", workload, name)
				}
			}
			for name := range want {
				if _, ok := got.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: BENCHMARK.json lists %s, which the program does not emit", workload, trace, name)
				}
			}
			// The full report carries every metric the catalogue defines for
			// the workload, and none it does not.
			for _, m := range endToEnd {
				if _, ok := res.EndToEnd[m.Name]; ok != m.definedOn(workload) {
					t.Errorf("%s: end-to-end %s present=%v, catalogue says defined=%v", workload, m.Name, ok, m.definedOn(workload))
				}
			}
			if trace {
				for _, m := range perLayer {
					if _, ok := res.PerLayer[m.Name]; ok != m.definedOn(workload) {
						t.Errorf("%s: per-layer %s present=%v, catalogue says defined=%v", workload, m.Name, ok, m.definedOn(workload))
					}
				}
				if res.Claim != nil {
					t.Error("claim must be null")
				}
			}
		}
	}
}
